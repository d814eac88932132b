//! The message set: requests a client sends the daemon, responses it
//! gets back, and the wire mirrors of the domain payloads they carry.
//!
//! Wire structs are deliberately *flat mirrors* built from primitives
//! only — `pinum-protocol` depends on nothing, so it cannot name domain
//! types. The lossless conversions (`pinum_catalog::Index` ↔
//! [`WireIndex`], …) live in `pinum_server::convert`, keeping this crate
//! a pure byte-layout contract. Every field is encoded in declaration
//! order; see the crate docs for the primitive encodings.

use crate::wire::*;
use crate::WireError;

/// One candidate index, field-exact (sizes and correlation travel as
/// computed on the sender — nothing is re-derived on decode).
#[derive(Debug, Clone, PartialEq)]
pub struct WireIndex {
    pub id: u32,
    pub table: u32,
    pub key_columns: Vec<u16>,
    pub unique: bool,
    /// 0 = materialized, 1 = hypothetical.
    pub kind: u8,
    pub leaf_pages: u64,
    pub internal_pages: u64,
    pub height: u32,
    pub correlation: f64,
    pub rows: u64,
    pub name: String,
}

impl WireIndex {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.id);
        put_u32(out, self.table);
        put_vec(out, &self.key_columns, |o, v| put_u16(o, *v));
        put_bool(out, self.unique);
        put_u8(out, self.kind);
        put_u64(out, self.leaf_pages);
        put_u64(out, self.internal_pages);
        put_u32(out, self.height);
        put_f64(out, self.correlation);
        put_u64(out, self.rows);
        put_string(out, &self.name);
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            id: c.u32()?,
            table: c.u32()?,
            key_columns: c.vec(2, |c| c.u16())?,
            unique: c.bool()?,
            kind: match c.u8()? {
                k @ (0 | 1) => k,
                _ => return Err(WireError::Malformed("index kind not 0 or 1")),
            },
            leaf_pages: c.u64()?,
            internal_pages: c.u64()?,
            height: c.u32()?,
            correlation: c.f64()?,
            rows: c.u64()?,
            name: c.string()?,
        })
    }
}

/// Cost-model parameters (mirror of `pinum_cost::CostParams`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireCostParams {
    pub seq_page_cost: f64,
    pub random_page_cost: f64,
    pub cpu_tuple_cost: f64,
    pub cpu_index_tuple_cost: f64,
    pub cpu_operator_cost: f64,
    pub effective_cache_pages: f64,
    pub work_mem_kb: u64,
}

impl WireCostParams {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.seq_page_cost);
        put_f64(out, self.random_page_cost);
        put_f64(out, self.cpu_tuple_cost);
        put_f64(out, self.cpu_index_tuple_cost);
        put_f64(out, self.cpu_operator_cost);
        put_f64(out, self.effective_cache_pages);
        put_u64(out, self.work_mem_kb);
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            seq_page_cost: c.f64()?,
            random_page_cost: c.f64()?,
            cpu_tuple_cost: c.f64()?,
            cpu_index_tuple_cost: c.f64()?,
            cpu_operator_cost: c.f64()?,
            effective_cache_pages: c.f64()?,
            work_mem_kb: c.u64()?,
        })
    }
}

/// Probe-pricing inputs of one access arm (mirror of
/// `pinum_cost::scan::IndexScanInput`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireProbe {
    pub index_leaf_pages: u64,
    pub index_height: u32,
    pub index_rows: f64,
    pub heap_pages: u64,
    pub heap_rows: f64,
    pub index_selectivity: f64,
    pub correlation: f64,
    pub filter_ops: u32,
    pub index_only: bool,
    pub loop_count: f64,
}

impl WireProbe {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.index_leaf_pages);
        put_u32(out, self.index_height);
        put_f64(out, self.index_rows);
        put_u64(out, self.heap_pages);
        put_f64(out, self.heap_rows);
        put_f64(out, self.index_selectivity);
        put_f64(out, self.correlation);
        put_u32(out, self.filter_ops);
        put_bool(out, self.index_only);
        put_f64(out, self.loop_count);
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            index_leaf_pages: c.u64()?,
            index_height: c.u32()?,
            index_rows: c.f64()?,
            heap_pages: c.u64()?,
            heap_rows: c.f64()?,
            index_selectivity: c.f64()?,
            correlation: c.f64()?,
            filter_ops: c.u32()?,
            index_only: c.bool()?,
            loop_count: c.f64()?,
        })
    }
}

/// One priced access path (mirror of
/// `pinum_core::access_costs::CandidateAccess`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireAccess {
    pub candidate: Option<u32>,
    pub order: Option<u16>,
    pub cost: f64,
    pub probe: Option<WireProbe>,
}

impl WireAccess {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_option(out, &self.candidate, |o, v| put_u32(o, *v));
        put_option(out, &self.order, |o, v| put_u16(o, *v));
        put_f64(out, self.cost);
        put_option(out, &self.probe, |o, p| p.encode(o));
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            candidate: c.option(|c| c.u32())?,
            order: c.option(|c| c.u16())?,
            cost: c.f64()?,
            probe: c.option(WireProbe::decode)?,
        })
    }
}

/// A query's full access-cost catalog (mirror of
/// `pinum_core::access_costs::AccessCostCatalog`): per relation, the
/// priced entries exactly as collected (order preserved — no re-sort on
/// either side).
#[derive(Debug, Clone, PartialEq)]
pub struct WireAccessCatalog {
    pub per_rel: Vec<Vec<WireAccess>>,
    pub params: WireCostParams,
}

impl WireAccessCatalog {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_vec(out, &self.per_rel, |o, rel| {
            put_vec(o, rel, |o, a| a.encode(o));
        });
        self.params.encode(out);
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            per_rel: c.vec(4, |c| c.vec(1, WireAccess::decode))?,
            params: WireCostParams::decode(c)?,
        })
    }
}

/// One cached plan (mirror of `pinum_core::cache::CachedPlan`).
#[derive(Debug, Clone, PartialEq)]
pub struct WirePlan {
    pub ioc: u64,
    pub internal: f64,
    pub coefs: Vec<f64>,
    pub probe_coefs: Vec<f64>,
    pub uses_nlj: bool,
    pub rows: f64,
    pub description: String,
}

impl WirePlan {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.ioc);
        put_f64(out, self.internal);
        put_vec(out, &self.coefs, |o, v| put_f64(o, *v));
        put_vec(out, &self.probe_coefs, |o, v| put_f64(o, *v));
        put_bool(out, self.uses_nlj);
        put_f64(out, self.rows);
        put_string(out, &self.description);
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            ioc: c.u64()?,
            internal: c.f64()?,
            coefs: c.vec(8, |c| c.f64())?,
            probe_coefs: c.vec(8, |c| c.f64())?,
            uses_nlj: c.bool()?,
            rows: c.f64()?,
            description: c.string()?,
        })
    }
}

/// A query's plan cache (mirror of `pinum_core::cache::PlanCache`):
/// interesting orders as per-relation sorted column lists, plans in
/// insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePlanCache {
    pub query_name: String,
    pub n_rels: u32,
    pub orders: Vec<Vec<u16>>,
    pub plans: Vec<WirePlan>,
}

impl WirePlanCache {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, &self.query_name);
        put_u32(out, self.n_rels);
        put_vec(out, &self.orders, |o, rel| {
            put_vec(o, rel, |o, v| put_u16(o, *v));
        });
        put_vec(out, &self.plans, |o, p| p.encode(o));
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            query_name: c.string()?,
            n_rels: c.u32()?,
            orders: c.vec(4, |c| c.vec(2, |c| c.u16()))?,
            plans: c.vec(8, WirePlan::decode)?,
        })
    }
}

/// A template key for drift attribution (mirror of
/// `pinum_query::TemplateKey`): the table plus bit-exact filter
/// identities `(column, op tag, lo bits, hi bits)`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTemplate {
    pub table: u32,
    pub filters: Vec<(u16, u8, u64, u64)>,
}

impl WireTemplate {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.table);
        put_vec(out, &self.filters, |o, &(col, tag, lo, hi)| {
            put_u16(o, col);
            put_u8(o, tag);
            put_u64(o, lo);
            put_u64(o, hi);
        });
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            table: c.u32()?,
            filters: c.vec(19, |c| Ok((c.u16()?, c.u8()?, c.u64()?, c.u64()?)))?,
        })
    }
}

/// Advisor options for a new tenant (mirror of
/// `pinum_online::OnlineAdvisorOptions` plus the strategy tag).
#[derive(Debug, Clone, PartialEq)]
pub struct WireOptions {
    pub window_capacity: u64,
    pub epoch_length: u64,
    pub drift_threshold: f64,
    /// 0 = lazy greedy, 1 = eager greedy, 2 = swap hill-climb (the
    /// server validates the tag; the annealing strategy is not exposed
    /// over the wire).
    pub strategy: u8,
    pub budget_bytes: u64,
    pub scoped_readvise: bool,
}

impl WireOptions {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.window_capacity);
        put_u64(out, self.epoch_length);
        put_f64(out, self.drift_threshold);
        put_u8(out, self.strategy);
        put_u64(out, self.budget_bytes);
        put_bool(out, self.scoped_readvise);
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            window_capacity: c.u64()?,
            epoch_length: c.u64()?,
            drift_threshold: c.f64()?,
            strategy: c.u8()?,
            budget_bytes: c.u64()?,
            scoped_readvise: c.bool()?,
        })
    }
}

/// One admission's payload: the per-query one-optimizer-call artifacts
/// plus weight and attribution templates — exactly one
/// `pinum_online::AdmissionSpec` for `OnlineAdvisor::apply`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAdmission {
    pub cache: WirePlanCache,
    pub access: WireAccessCatalog,
    pub weight: f64,
    pub templates: Vec<WireTemplate>,
}

impl WireAdmission {
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.cache.encode(out);
        self.access.encode(out);
        put_f64(out, self.weight);
        put_vec(out, &self.templates, |o, t| t.encode(o));
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            cache: WirePlanCache::decode(c)?,
            access: WireAccessCatalog::decode(c)?,
            weight: c.f64()?,
            templates: c.vec(8, WireTemplate::decode)?,
        })
    }
}

/// One re-advising round's outcome (mirror of
/// `pinum_online::ReadviseReport`; wall clock travels as seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct WireReadviseReport {
    /// 0 = epoch, 1 = drift, 2 = forced.
    pub trigger: u8,
    pub wall_seconds: f64,
    pub cost_before: f64,
    pub cost_after: f64,
    pub picks: u64,
    pub evaluations: u64,
    pub queries_repriced: u64,
    pub full_repricings: u64,
    pub scoped: bool,
    pub scope_candidates: u64,
}

impl WireReadviseReport {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u8(out, self.trigger);
        put_f64(out, self.wall_seconds);
        put_f64(out, self.cost_before);
        put_f64(out, self.cost_after);
        put_u64(out, self.picks);
        put_u64(out, self.evaluations);
        put_u64(out, self.queries_repriced);
        put_u64(out, self.full_repricings);
        put_bool(out, self.scoped);
        put_u64(out, self.scope_candidates);
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            trigger: match c.u8()? {
                t @ 0..=2 => t,
                _ => return Err(WireError::Malformed("readvise trigger not 0..=2")),
            },
            wall_seconds: c.f64()?,
            cost_before: c.f64()?,
            cost_after: c.f64()?,
            picks: c.u64()?,
            evaluations: c.u64()?,
            queries_repriced: c.u64()?,
            full_repricings: c.u64()?,
            scoped: c.bool()?,
            scope_candidates: c.u64()?,
        })
    }
}

/// One admission's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAdmitResult {
    pub ordinal: u64,
    pub qid: u64,
    pub evicted: Option<u64>,
    pub readvise: Option<WireReadviseReport>,
}

impl WireAdmitResult {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.ordinal);
        put_u64(out, self.qid);
        put_option(out, &self.evicted, |o, v| put_u64(o, *v));
        put_option(out, &self.readvise, |o, r| r.encode(o));
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            ordinal: c.u64()?,
            qid: c.u64()?,
            evicted: c.option(|c| c.u64())?,
            readvise: c.option(WireReadviseReport::decode)?,
        })
    }
}

/// A tenant's daemon counters (mirror of `pinum_online::OnlineStats`;
/// wall clocks travel as seconds).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireStats {
    pub admits: u64,
    pub evictions: u64,
    pub reweights: u64,
    pub reweight_misses: u64,
    pub readvises: u64,
    pub epoch_readvises: u64,
    pub drift_readvises: u64,
    pub forced_readvises: u64,
    pub scoped_readvises: u64,
    pub full_repricings: u64,
    pub compactions: u64,
    pub admit_arms_total: u64,
    pub admit_arms_max: u64,
    pub model_admit_wall_seconds: f64,
    pub readvise_wall_seconds: f64,
    pub last_readvise_wall_seconds: f64,
}

impl WireStats {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.admits);
        put_u64(out, self.evictions);
        put_u64(out, self.reweights);
        put_u64(out, self.reweight_misses);
        put_u64(out, self.readvises);
        put_u64(out, self.epoch_readvises);
        put_u64(out, self.drift_readvises);
        put_u64(out, self.forced_readvises);
        put_u64(out, self.scoped_readvises);
        put_u64(out, self.full_repricings);
        put_u64(out, self.compactions);
        put_u64(out, self.admit_arms_total);
        put_u64(out, self.admit_arms_max);
        put_f64(out, self.model_admit_wall_seconds);
        put_f64(out, self.readvise_wall_seconds);
        put_f64(out, self.last_readvise_wall_seconds);
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            admits: c.u64()?,
            evictions: c.u64()?,
            reweights: c.u64()?,
            reweight_misses: c.u64()?,
            readvises: c.u64()?,
            epoch_readvises: c.u64()?,
            drift_readvises: c.u64()?,
            forced_readvises: c.u64()?,
            scoped_readvises: c.u64()?,
            full_repricings: c.u64()?,
            compactions: c.u64()?,
            admit_arms_total: c.u64()?,
            admit_arms_max: c.u64()?,
            model_admit_wall_seconds: c.f64()?,
            readvise_wall_seconds: c.f64()?,
            last_readvise_wall_seconds: c.f64()?,
        })
    }
}

/// A tenant's view of the global re-advise budget.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireBudgetStats {
    /// Re-advise permits this tenant was granted.
    pub grants: u64,
    /// Grants that had to wait for a permit.
    pub waits: u64,
    /// Longest wait, measured in grant events that passed while queued
    /// (the deterministic unit the aging bound is stated in).
    pub max_wait_events: u64,
    /// Sum of per-grant waits in grant events.
    pub total_wait_events: u64,
}

impl WireBudgetStats {
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.grants);
        put_u64(out, self.waits);
        put_u64(out, self.max_wait_events);
        put_u64(out, self.total_wait_events);
    }

    pub fn decode(c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(Self {
            grants: c.u64()?,
            waits: c.u64()?,
            max_wait_events: c.u64()?,
            total_wait_events: c.u64()?,
        })
    }
}

/// Typed error replies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// `CreateTenant` for an id that already exists.
    TenantExists,
    /// Any tenant-scoped request for an id never created.
    UnknownTenant,
    /// The frame was delimited but its payload did not decode; the
    /// connection survives.
    Malformed,
    /// The daemon is shutting down and no longer serves tenant requests.
    ShuttingDown,
    /// A durability-only request (`SnapshotNow`) hit a tenant the daemon
    /// runs without a snapshot directory.
    PersistenceDisabled,
    /// A journal or snapshot write failed; the in-memory tenant is still
    /// consistent but the mutation was refused.
    Persistence,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::TenantExists => 1,
            ErrorCode::UnknownTenant => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::PersistenceDisabled => 5,
            ErrorCode::Persistence => 6,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            1 => ErrorCode::TenantExists,
            2 => ErrorCode::UnknownTenant,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::PersistenceDisabled,
            6 => ErrorCode::Persistence,
            _ => return Err(WireError::Malformed("unknown error code")),
        })
    }
}

/// Client → daemon messages. Tenant-scoped requests carry the tenant id
/// first; the daemon routes them to the tenant's shard.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Registers a tenant: its candidate pool (field-exact index
    /// snapshots) and advisor options.
    CreateTenant {
        tenant: u64,
        pool: Vec<WireIndex>,
        options: WireOptions,
    },
    /// Admits one query into the tenant's sliding window.
    AdmitQuery {
        tenant: u64,
        admission: WireAdmission,
    },
    /// Admits a batch in order, answered by one response.
    AdmitBatch {
        tenant: u64,
        admissions: Vec<WireAdmission>,
    },
    /// Reweights the admission with the given ordinal.
    ReweightAdmission {
        tenant: u64,
        admission: u64,
        weight: f64,
    },
    /// Evicts the admission with the given ordinal ahead of the window.
    EvictQuery { tenant: u64, admission: u64 },
    /// Forces a re-advising round now.
    ForceReadvise { tenant: u64 },
    /// Reads the tenant's current selection.
    GetSelection { tenant: u64 },
    /// Reads the tenant's daemon counters and budget stats.
    GetStats { tenant: u64 },
    /// Asks the daemon to stop accepting and drain.
    Shutdown,
    /// Cuts a snapshot of the tenant's state right now (durable daemons
    /// only — volatile ones answer `PersistenceDisabled`).
    SnapshotNow { tenant: u64 },
    /// Reads the tenant's persistence epoch: last journaled mutation and
    /// last snapshot cut, for deciding when a restart would be cheap.
    TenantEpoch { tenant: u64 },
}

impl Request {
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Request::CreateTenant { .. } => 1,
            Request::AdmitQuery { .. } => 2,
            Request::AdmitBatch { .. } => 3,
            Request::ReweightAdmission { .. } => 4,
            Request::EvictQuery { .. } => 5,
            Request::ForceReadvise { .. } => 6,
            Request::GetSelection { .. } => 7,
            Request::GetStats { .. } => 8,
            Request::Shutdown => 9,
            Request::SnapshotNow { .. } => 10,
            Request::TenantEpoch { .. } => 11,
        }
    }

    /// The tenant a request targets (`None` for daemon-wide requests).
    pub fn tenant(&self) -> Option<u64> {
        match *self {
            Request::CreateTenant { tenant, .. }
            | Request::AdmitQuery { tenant, .. }
            | Request::AdmitBatch { tenant, .. }
            | Request::ReweightAdmission { tenant, .. }
            | Request::EvictQuery { tenant, .. }
            | Request::ForceReadvise { tenant }
            | Request::GetSelection { tenant }
            | Request::GetStats { tenant }
            | Request::SnapshotNow { tenant }
            | Request::TenantEpoch { tenant } => Some(tenant),
            Request::Shutdown => None,
        }
    }

    pub(crate) fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Request::CreateTenant {
                tenant,
                pool,
                options,
            } => {
                put_u64(out, *tenant);
                put_vec(out, pool, |o, ix| ix.encode(o));
                options.encode(out);
            }
            Request::AdmitQuery { tenant, admission } => {
                put_u64(out, *tenant);
                admission.encode(out);
            }
            Request::AdmitBatch { tenant, admissions } => {
                put_u64(out, *tenant);
                put_vec(out, admissions, |o, a| a.encode(o));
            }
            Request::ReweightAdmission {
                tenant,
                admission,
                weight,
            } => {
                put_u64(out, *tenant);
                put_u64(out, *admission);
                put_f64(out, *weight);
            }
            Request::EvictQuery { tenant, admission } => {
                put_u64(out, *tenant);
                put_u64(out, *admission);
            }
            Request::ForceReadvise { tenant }
            | Request::GetSelection { tenant }
            | Request::GetStats { tenant }
            | Request::SnapshotNow { tenant }
            | Request::TenantEpoch { tenant } => put_u64(out, *tenant),
            Request::Shutdown => {}
        }
    }

    pub(crate) fn decode_body(tag: u8, c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(match tag {
            1 => Request::CreateTenant {
                tenant: c.u64()?,
                pool: c.vec(32, WireIndex::decode)?,
                options: WireOptions::decode(c)?,
            },
            2 => Request::AdmitQuery {
                tenant: c.u64()?,
                admission: WireAdmission::decode(c)?,
            },
            3 => Request::AdmitBatch {
                tenant: c.u64()?,
                admissions: c.vec(32, WireAdmission::decode)?,
            },
            4 => Request::ReweightAdmission {
                tenant: c.u64()?,
                admission: c.u64()?,
                weight: c.f64()?,
            },
            5 => Request::EvictQuery {
                tenant: c.u64()?,
                admission: c.u64()?,
            },
            6 => Request::ForceReadvise { tenant: c.u64()? },
            7 => Request::GetSelection { tenant: c.u64()? },
            8 => Request::GetStats { tenant: c.u64()? },
            9 => Request::Shutdown,
            10 => Request::SnapshotNow { tenant: c.u64()? },
            11 => Request::TenantEpoch { tenant: c.u64()? },
            other => return Err(WireError::UnknownTag(other)),
        })
    }
}

/// Daemon → client messages, one per request (same `request id`).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    TenantCreated {
        tenant: u64,
    },
    /// One result per admission of the batch (a single `AdmitQuery`
    /// answers with a one-element vector).
    Admitted {
        results: Vec<WireAdmitResult>,
    },
    Reweighted {
        /// False when the target had already left the window (no-op).
        applied: bool,
        readvise: Option<WireReadviseReport>,
    },
    Evicted {
        applied: bool,
    },
    Readvised {
        report: WireReadviseReport,
    },
    Selection {
        /// Selected candidate-pool ids, ascending.
        ids: Vec<u64>,
        /// Total size of the selected indexes in bytes.
        total_bytes: u64,
        /// Exact priced cost of the selection over the live window.
        cost: f64,
    },
    Stats {
        stats: WireStats,
        budget: WireBudgetStats,
    },
    ShuttingDown,
    Error {
        code: ErrorCode,
        detail: String,
    },
    /// Answer to `SnapshotNow`: the log position the snapshot covers.
    SnapshotTaken {
        log_seq: u64,
    },
    /// Answer to `TenantEpoch`.
    Epoch {
        /// Whether the tenant journals its mutations at all.
        durable: bool,
        /// Sequence number of the last journaled mutation (0 when
        /// volatile).
        log_seq: u64,
        /// Log position of the newest snapshot, if one was ever cut.
        snapshot_seq: Option<u64>,
        /// Write-ahead-log durability counters since this process
        /// created or reopened the log (all 0 when volatile): records
        /// appended, fsyncs issued, group-commit batches written, and
        /// the largest record count folded into one fsync. `fsyncs <
        /// appends` is the observable group-commit win.
        appends: u64,
        fsyncs: u64,
        batches: u64,
        max_batch_records: u64,
    },
}

impl Response {
    pub(crate) fn tag(&self) -> u8 {
        match self {
            Response::TenantCreated { .. } => 1,
            Response::Admitted { .. } => 2,
            Response::Reweighted { .. } => 3,
            Response::Evicted { .. } => 4,
            Response::Readvised { .. } => 5,
            Response::Selection { .. } => 6,
            Response::Stats { .. } => 7,
            Response::ShuttingDown => 8,
            Response::Error { .. } => 9,
            Response::SnapshotTaken { .. } => 10,
            Response::Epoch { .. } => 11,
        }
    }

    pub(crate) fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            Response::TenantCreated { tenant } => put_u64(out, *tenant),
            Response::Admitted { results } => put_vec(out, results, |o, r| r.encode(o)),
            Response::Reweighted { applied, readvise } => {
                put_bool(out, *applied);
                put_option(out, readvise, |o, r| r.encode(o));
            }
            Response::Evicted { applied } => put_bool(out, *applied),
            Response::Readvised { report } => report.encode(out),
            Response::Selection {
                ids,
                total_bytes,
                cost,
            } => {
                put_vec(out, ids, |o, v| put_u64(o, *v));
                put_u64(out, *total_bytes);
                put_f64(out, *cost);
            }
            Response::Stats { stats, budget } => {
                stats.encode(out);
                budget.encode(out);
            }
            Response::ShuttingDown => {}
            Response::Error { code, detail } => {
                put_u8(out, code.tag());
                put_string(out, detail);
            }
            Response::SnapshotTaken { log_seq } => put_u64(out, *log_seq),
            Response::Epoch {
                durable,
                log_seq,
                snapshot_seq,
                appends,
                fsyncs,
                batches,
                max_batch_records,
            } => {
                put_bool(out, *durable);
                put_u64(out, *log_seq);
                put_option(out, snapshot_seq, |o, s| put_u64(o, *s));
                put_u64(out, *appends);
                put_u64(out, *fsyncs);
                put_u64(out, *batches);
                put_u64(out, *max_batch_records);
            }
        }
    }

    pub(crate) fn decode_body(tag: u8, c: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(match tag {
            1 => Response::TenantCreated { tenant: c.u64()? },
            2 => Response::Admitted {
                results: c.vec(18, WireAdmitResult::decode)?,
            },
            3 => Response::Reweighted {
                applied: c.bool()?,
                readvise: c.option(WireReadviseReport::decode)?,
            },
            4 => Response::Evicted { applied: c.bool()? },
            5 => Response::Readvised {
                report: WireReadviseReport::decode(c)?,
            },
            6 => Response::Selection {
                ids: c.vec(8, |c| c.u64())?,
                total_bytes: c.u64()?,
                cost: c.f64()?,
            },
            7 => Response::Stats {
                stats: WireStats::decode(c)?,
                budget: WireBudgetStats::decode(c)?,
            },
            8 => Response::ShuttingDown,
            9 => Response::Error {
                code: ErrorCode::from_tag(c.u8()?)?,
                detail: c.string()?,
            },
            10 => Response::SnapshotTaken { log_seq: c.u64()? },
            11 => Response::Epoch {
                durable: c.bool()?,
                log_seq: c.u64()?,
                snapshot_seq: c.option(|c| c.u64())?,
                appends: c.u64()?,
                fsyncs: c.u64()?,
                batches: c.u64()?,
                max_batch_records: c.u64()?,
            },
            other => return Err(WireError::UnknownTag(other)),
        })
    }
}
