//! # pinum-online — the workload as a stream
//!
//! The paper makes what-if pricing cheap enough to run *continuously*;
//! this crate is the serving layer that actually does so. [`OnlineAdvisor`]
//! runs as a long-lived daemon over a persistent
//! [`pinum_core::PricingSession`] — the streaming `WorkloadModel`, the
//! current [`Selection`], and a **live
//! [`PricedWorkload`](pinum_core::PricedWorkload)** owned together,
//! spliced (never rebuilt) through the session lifecycle:
//!
//! * **admit** — every arriving query's `(plan cache, access catalog)`
//!   pair (the one-optimizer-call artifacts) is spliced into the session
//!   in O(that query's access arms) plus one single-query pricing; the
//!   priced state stays bit-identical to a fresh `price_full` at every
//!   step (debug-asserted, sampled via `PINUM_ASSERT_SAMPLE`). Admissions
//!   may carry the query's [`TemplateKey`]s for drift attribution; the
//!   window slides by count.
//!   In-place [`OnlineAdvisor::reweight`] events (the same query
//!   getting hotter) re-price exactly one query.
//! * **attribute** — [`DriftAttribution`] tracks each template's share of
//!   the live priced cost since the last re-advise. The mean-based drift
//!   detector says *whether* the selection regressed; attribution says
//!   *which templates* did.
//! * **scoped re-advise** — re-selection fires on epoch boundaries, on
//!   drift, or on demand, **warm-started** from the previous selection
//!   *with its exact priced state handed intact* to
//!   [`StrategyKind::search_scoped`] — so a steady-state re-advise
//!   performs **zero** full workload re-pricings (accepted picks are
//!   delta splices too; [`OnlineStats::full_repricings`] counts the
//!   exceptions and the `scoped_readvise` acceptance test holds it at
//!   0). When drift fired and attribution localized it, the search is
//!   additionally **scoped**: only candidates whose affected queries
//!   (read off the model's arm index) intersect the regressed queries
//!   are probed.
//! * **compact** — once tombstones outnumber live queries the session
//!   compacts (bit-identical pricing, O(window) renumbering), keeping
//!   lifetime memory O(window).
//!
//! The daemon is deterministic: the same pool, option set, and admission
//! sequence produce bit-identical selections, costs, and trigger
//! sequences — which is how the drift experiments can hold it against
//! full-rebuild and full-scope baselines on the same history.
//!
//! [`StrategyKind::search_scoped`]: pinum_advisor::search::StrategyKind::search_scoped

pub mod attribution;

pub use attribution::{DriftAttribution, DriftAttributionParts};

use pinum_advisor::greedy::GreedyOptions;
use pinum_advisor::search::{SearchScope, StrategyKind};
use pinum_core::access_costs::AccessCostCatalog;
use pinum_core::builder::BuilderOptions;
use pinum_core::cache::PlanCache;
use pinum_core::{
    CandidatePool, PricingSession, Selection, WorkloadCollector, WorkloadModel, WorkloadModelParts,
};
use pinum_optimizer::Optimizer;
use pinum_query::{Query, RelIdx, RelTemplate, TemplateKey};
use std::time::{Duration, Instant};

/// Knobs of the online tuning daemon.
#[derive(Debug, Clone, Copy)]
pub struct OnlineAdvisorOptions {
    /// Maximum live queries in the sliding window (count eviction).
    pub window_capacity: usize,
    /// Admissions per epoch; every epoch boundary re-advises.
    pub epoch_length: usize,
    /// Relative regression of the window's mean priced cost (vs the mean
    /// right after the last re-advise) that fires an early re-advise.
    pub drift_threshold: f64,
    /// Search strategy used at re-advise time, always warm-started from
    /// the previous selection and its carried priced state, ranking
    /// candidates by absolute benefit.
    pub strategy: StrategyKind,
    /// Index disk budget handed to the strategy.
    pub budget_bytes: u64,
    /// Scope drift-triggered re-advises to the candidates that can affect
    /// the regressed templates (needs template-attributed admissions;
    /// falls back to the full-scope search — bit-identical to the
    /// unscoped daemon — whenever attribution cannot localize the drift).
    /// A template counts as regressed for scoping once its cost rose by
    /// 10 %.
    pub scoped_readvise: bool,
}

/// Relative per-template cost regression that marks a template regressed
/// for scoped re-advising.
const ATTRIBUTION_THRESHOLD: f64 = 0.1;

impl OnlineAdvisorOptions {
    /// Sensible daemon defaults for a given budget: 256-query window,
    /// epoch of 64, 20 % drift threshold, lazy greedy, template-scoped
    /// drift re-advising.
    pub fn defaults(budget_bytes: u64) -> Self {
        Self {
            window_capacity: 256,
            epoch_length: 64,
            drift_threshold: 0.2,
            strategy: StrategyKind::LazyGreedy,
            budget_bytes,
            scoped_readvise: true,
        }
    }

    /// The one validity rule for daemon options: a window that holds a
    /// query, an epoch that spans an admission, and a finite non-negative
    /// drift threshold. [`OnlineAdvisor::new`] panics on a violation;
    /// every other layer maps it to its own typed error.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.window_capacity < 1 {
            return Err("window must hold a query");
        }
        if self.epoch_length < 1 {
            return Err("epoch must span an admission");
        }
        if !(self.drift_threshold >= 0.0 && self.drift_threshold.is_finite()) {
            return Err("drift threshold must be a finite non-negative ratio");
        }
        Ok(())
    }
}

/// What caused a re-advise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadviseTrigger {
    /// Epoch boundary (`epoch_length` admissions since the last one).
    Epoch,
    /// Drift detector fired early.
    Drift,
    /// Caller asked explicitly via [`OnlineAdvisor::readvise`].
    Forced,
}

/// Outcome of one re-advising round.
#[derive(Debug, Clone)]
pub struct ReadviseReport {
    pub trigger: ReadviseTrigger,
    pub wall: Duration,
    /// Exact priced cost of the *old* selection over the current window.
    pub cost_before: f64,
    /// Exact priced cost of the new selection over the current window.
    pub cost_after: f64,
    /// Indexes in the new selection.
    pub picks: usize,
    /// Workload-cost evaluations the search spent.
    pub evaluations: usize,
    /// Individual query re-pricings the search spent.
    pub queries_repriced: usize,
    /// Full workload re-pricings this round performed (search seed +
    /// session refreshes). 0 whenever the warm state was carried intact —
    /// the steady-state gate of the `scoped_readvise` acceptance test.
    pub full_repricings: usize,
    /// Whether the search ran under a template-derived candidate mask.
    pub scoped: bool,
    /// Candidates the search was allowed to add (pool size when
    /// unscoped).
    pub scope_candidates: usize,
}

/// Outcome of one admission.
#[derive(Debug, Clone)]
pub struct Admission {
    /// Stable query id inside the streaming model (valid until the next
    /// re-advise, which may compact and renumber).
    pub qid: usize,
    /// 0-based admission ordinal — stable forever; the handle
    /// [`OnlineAdvisor::reweight`] takes.
    pub ordinal: usize,
    /// Query evicted by the window, if it overflowed.
    pub evicted: Option<usize>,
    /// Wall time of the session splice (model splice + pricing the one
    /// newcomer under the current selection).
    pub model_wall: Duration,
    /// Flattened access arms of the admitted query — the unit the splice
    /// work is proportional to (never the workload size). Counts only the
    /// plans that survived the model's pool-aware pruning (those that can
    /// be the query's cheapest under some selection from the pool), so it
    /// is usually far below the arms of the admitted cache.
    pub model_arms: usize,
    /// The re-advise this admission triggered, if any (inline specs
    /// only — a deferred spec reports via `pending` instead).
    pub readvise: Option<ReadviseReport>,
    /// The re-advise this admission *would* run, returned instead of
    /// executed because the spec was [`AdmissionSpec::deferred`]. The
    /// caller runs it via [`OnlineAdvisor::readvise_triggered`]; as long
    /// as no other mutation touches the advisor in between, the deferred
    /// execution is bit-identical to the inline one.
    pub pending: Option<ReadviseTrigger>,
}

/// One canonical admission mutation — the *only* thing
/// [`OnlineAdvisor::apply`] and [`OnlineAdvisor::apply_batch_gated`]
/// consume, and (field for field) the record the persistence log
/// serializes:
///
/// ```ignore
/// advisor.apply(AdmissionSpec::new(&cache, &access)
///     .weight(2.5)
///     .templates(&keys)
///     .deferred(true));
/// ```
///
/// Defaults: weight 1.0, no templates (the query counts as
/// conservatively regressed whenever drift fires), re-advises inline.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionSpec<'a> {
    /// The query's cached plans — one half of the paper's
    /// one-optimizer-call artifact.
    pub cache: &'a PlanCache,
    /// The query's collected access costs — the other half.
    pub access: &'a AccessCostCatalog,
    /// Workload weight (finite, > 0).
    pub weight: f64,
    /// Per-relation [`TemplateKey`]s for drift attribution (empty ⇒
    /// unattributed).
    pub templates: &'a [TemplateKey],
    /// Defer a triggered re-advise: return it in [`Admission::pending`]
    /// instead of executing it inline ([`OnlineAdvisor::apply`] only —
    /// the gated batch path runs every trigger under its caller's guard).
    pub deferred: bool,
}

impl<'a> AdmissionSpec<'a> {
    /// A weight-1.0, unattributed, inline admission of one `(plan cache,
    /// access catalog)` pair.
    pub fn new(cache: &'a PlanCache, access: &'a AccessCostCatalog) -> Self {
        Self {
            cache,
            access,
            weight: 1.0,
            templates: &[],
            deferred: false,
        }
    }

    /// Sets the workload weight (e.g. an observed execution frequency).
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Attaches the query's templates (as produced by
    /// [`query_templates`]) for template-scoped drift attribution.
    pub fn templates(mut self, templates: &'a [TemplateKey]) -> Self {
        self.templates = templates;
        self
    }

    /// Defers any triggered re-advise to the caller.
    pub fn deferred(mut self, deferred: bool) -> Self {
        self.deferred = deferred;
        self
    }
}

/// Outcome of one [`OnlineAdvisor::reweight`] event.
#[derive(Debug, Clone)]
pub struct ReweightOutcome {
    /// Whether the reweight landed on a live resident (`false` ⇒ the
    /// target had already left the window; dropped as a counted no-op).
    pub applied: bool,
    /// The drift re-advise the hotter query triggered, executed inline
    /// (non-deferred events only).
    pub readvise: Option<ReadviseReport>,
    /// The trigger returned instead of executed (deferred events only).
    pub pending: Option<ReadviseTrigger>,
}

/// The owned artifacts [`OnlineAdvisor::collect_admission`] builds from a
/// raw [`Query`]: its PINUM plan cache, its access costs (collected
/// through the daemon's shared template cache), and its templates —
/// everything an [`AdmissionSpec`] borrows.
#[derive(Debug, Clone)]
pub struct CollectedAdmission {
    pub cache: PlanCache,
    pub access: AccessCostCatalog,
    pub templates: Vec<TemplateKey>,
}

impl CollectedAdmission {
    /// Borrows the artifacts as a spec at `weight`.
    pub fn spec(&self, weight: f64) -> AdmissionSpec<'_> {
        AdmissionSpec::new(&self.cache, &self.access)
            .weight(weight)
            .templates(&self.templates)
    }
}

/// Counters proving what the daemon did (and did not) do.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    pub admits: usize,
    pub evictions: usize,
    /// In-place reweight events applied ([`OnlineAdvisor::reweight`]).
    pub reweights: usize,
    /// Reweight events targeting an admission that had already left the
    /// window (dropped as no-ops).
    pub reweight_misses: usize,
    pub readvises: usize,
    pub epoch_readvises: usize,
    pub drift_readvises: usize,
    pub forced_readvises: usize,
    /// Re-advises that ran under a template-derived candidate mask.
    pub scoped_readvises: usize,
    /// Full workload re-pricings the session performed or adopted from
    /// searches. Stays 0 while warm states carry across re-advises.
    pub full_repricings: usize,
    /// Tombstone compactions (O(window) renumbering, not rebuilds —
    /// pricing is bit-identical across them).
    pub compactions: usize,
    /// Total / max flattened arms over all admissions (the O(query) work
    /// witness: these are stream properties, independent of window size).
    /// Arms of plans that pool-aware pruning dropped are not counted:
    /// they are never packed (see [`Admission::model_arms`]).
    pub admit_arms_total: usize,
    pub admit_arms_max: usize,
    /// Template shapes [`OnlineAdvisor::collect_admission`] priced — one
    /// per *new* shape, zero for admissions whose relations all hit the
    /// shared cache. Each rides on its admission's one exporting call.
    pub templates_priced: usize,
    /// Relation collections `collect_admission` served straight from the
    /// shared template cache.
    pub collect_template_hits: usize,
    /// Summed wall time of the session splices alone.
    pub model_admit_wall: Duration,
    /// Summed wall time of re-advising rounds.
    pub readvise_wall: Duration,
    /// Wall time of the most recent re-advising round — the steady-state
    /// latency figure `readvise_wall` (a lifetime sum) cannot express.
    pub last_readvise_wall: Duration,
}

/// Plain-data export of the daemon's complete mutable state — everything
/// the `pinum-persist` snapshot format serializes, and nothing a restore
/// can recompute. The shared template cache is deliberately **excluded**:
/// it is a pure performance cache, so a restored daemon re-collects
/// template shapes on demand with bit-identical results (its collection
/// *counters* live in [`OnlineStats`] and are restored verbatim).
///
/// The window and the ordinal book are derived, not stored. Query ids
/// are issued in admission order and compaction keeps their relative
/// order, so the window is the model's live ids in ascending order (its
/// oldest resident is the lowest live id), and `qid_ordinal` — strictly
/// increasing, every entry below `stats.admits` — resolves an admission
/// ordinal by binary search. Attribution liveness is the model's too.
#[derive(Debug, Clone)]
pub struct OnlineAdvisorParts {
    /// Streaming model export ([`pinum_core::WorkloadModel::to_parts`]).
    pub model: WorkloadModelParts,
    /// Current selection bitset words.
    pub selection_words: Vec<u64>,
    /// The session's spliced per-query priced costs.
    pub per_query: Vec<f64>,
    /// Full re-pricings the session has performed so far.
    pub full_repricings: usize,
    /// Attribution books export ([`DriftAttribution::to_parts`]).
    pub attribution: DriftAttributionParts,
    /// Query slot → admission ordinal (tombstones included).
    pub qid_ordinal: Vec<u32>,
    /// Drift baseline: mean priced cost per live query after the last
    /// re-advise (+∞ disarms the detector).
    pub baseline_mean: f64,
    /// Admissions since the last re-advise (the epoch clock).
    pub admits_since_advise: usize,
    /// Lifetime counters, restored verbatim.
    pub stats: OnlineStats,
}

/// The epoch-based online tuning daemon. See the crate docs.
pub struct OnlineAdvisor {
    pool: CandidatePool,
    opts: OnlineAdvisorOptions,
    /// The persistent pricing session: streaming model + current
    /// selection + live priced state, spliced across the whole lifecycle.
    session: PricingSession,
    /// Shared template cache for [`Self::collect_admission`]: admissions of
    /// template-sharing queries skip access-collection optimizer calls.
    collector: WorkloadCollector,
    /// Per-template priced-cost attribution for scoped re-advising.
    attribution: DriftAttribution,
    /// Query slot → admission ordinal, tombstones included. Ids are
    /// issued in admission order and compaction keeps their order, so
    /// this is strictly increasing: the ordinal handle behind
    /// [`Self::reweight`] resolves by binary search, and compaction
    /// retires evicted ordinals with their slots, keeping it O(window).
    qid_ordinal: Vec<u32>,
    /// Mean priced cost per live query right after the last re-advise
    /// (infinite before the first one, which disarms the drift detector
    /// until an epoch fires).
    baseline_mean: f64,
    admits_since_advise: usize,
    stats: OnlineStats,
}

impl OnlineAdvisor {
    /// Starts the daemon over a fixed candidate pool with an empty
    /// window and an empty selection.
    pub fn new(pool: CandidatePool, opts: OnlineAdvisorOptions) -> Self {
        if let Err(e) = opts.validate() {
            panic!("{e}");
        }
        let session = PricingSession::new(pool.len());
        Self {
            pool,
            opts,
            session,
            collector: WorkloadCollector::new(),
            attribution: DriftAttribution::new(),
            qid_ordinal: Vec::new(),
            baseline_mean: f64::INFINITY,
            admits_since_advise: 0,
            stats: OnlineStats::default(),
        }
    }

    /// Applies one [`AdmissionSpec`] — the single-spec admission entry
    /// point: the width-1 call of the admission body (`splice`) plus the
    /// spec's own trigger handling. The spec's `(cache, access)` pair is
    /// the per-query artifact of the paper's one optimizer call — built
    /// by the caller (or by [`Self::collect_admission`]), spliced here in
    /// O(that query's access arms) plus one single-query pricing.
    ///
    /// An inline spec executes any triggered re-advise before returning
    /// ([`Admission::readvise`]); a [`AdmissionSpec::deferred`] spec
    /// returns the trigger in [`Admission::pending`] for the caller to
    /// run later via [`Self::readvise_triggered`] — bit-identical to the
    /// inline execution as long as no other mutation touches this
    /// advisor in between, which is how a caller can gate *when*
    /// re-advises run without changing *what* they compute.
    pub fn apply(&mut self, spec: AdmissionSpec<'_>) -> Admission {
        let mut out = Vec::with_capacity(1);
        self.splice(std::slice::from_ref(&spec), &mut out);
        let mut admission = out.pop().expect("splice reports every spec");
        if spec.deferred {
            admission.pending = self.pending_trigger();
        } else {
            admission.readvise = self.pending_trigger().map(|t| self.readvise_with(t));
        }
        admission
    }

    /// Applies a run of admissions with per-spec [`Admission`] results
    /// **identical to serial inline [`Self::apply`] calls** (bit for bit
    /// in every deterministic field; `model_wall` is wall clock and is
    /// reported as each spec's share of its splice), for callers that
    /// gate re-advises behind an external budget (the multi-tenant
    /// server): `spec.deferred` is ignored and every triggered re-advise
    /// executes at its serial position under a guard obtained from
    /// `acquire`, held for the whole re-advise.
    ///
    /// The specs go through the admission body (`splice`) in maximal
    /// *trigger-free runs* — the window has room for the whole run, no
    /// spec lands on an epoch boundary, the drift detector is not armed —
    /// so the model maintenance pass and the invariant re-check run once
    /// per run instead of once per spec; where no such run exists the
    /// step is a run of one.
    pub fn apply_batch_gated<G>(
        &mut self,
        specs: &[AdmissionSpec<'_>],
        mut acquire: impl FnMut(ReadviseTrigger) -> G,
    ) -> Vec<Admission> {
        let mut out = Vec::with_capacity(specs.len());
        let mut rest = specs;
        while !rest.is_empty() {
            let k = self.trigger_free_run(rest.len()).max(1);
            self.splice(&rest[..k], &mut out);
            // Only a run of one can arm a trigger: a wider run was sized
            // to end before the next one.
            if let Some(trigger) = self.pending_trigger() {
                let _permit = acquire(trigger);
                let last = out.last_mut().expect("splice reports every spec");
                last.readvise = Some(self.readvise_with(trigger));
            }
            rest = &rest[k..];
        }
        out
    }

    /// Length of the maximal trigger-free run among the next `pending`
    /// admissions (see [`Self::apply_batch_gated`]). 0 while the drift
    /// detector is armed — every admission is then checked where it lands.
    fn trigger_free_run(&self, pending: usize) -> usize {
        if self.baseline_mean.is_finite() {
            return 0;
        }
        let window_room = self
            .opts
            .window_capacity
            .saturating_sub(self.session.model().live_query_count());
        let epoch_room = (self.opts.epoch_length - 1).saturating_sub(self.admits_since_advise);
        pending.min(window_room).min(epoch_room)
    }

    /// The one admission body: splices a run of k ≥ 1 specs through one
    /// session admission ([`PricingSession::admit_batch`] — one model
    /// maintenance pass, one tree extension; O(the run's access arms)
    /// plus one single-query pricing per newcomer, never an O(window)
    /// *re-pricing*), then books each spec into the ordinal map and the
    /// attribution, appending one [`Admission`] per spec to `out`.
    /// Triggers are the caller's: nothing here re-advises.
    fn splice(&mut self, specs: &[AdmissionSpec<'_>], out: &mut Vec<Admission>) {
        let splice = Instant::now();
        let queries: Vec<(&PlanCache, &AccessCostCatalog, f64)> = specs
            .iter()
            .map(|s| (s.cache, s.access, s.weight))
            .collect();
        let first = self.session.admit_batch(&queries);
        let model_wall = splice.elapsed();
        self.stats.model_admit_wall += model_wall;
        for (i, spec) in specs.iter().enumerate() {
            let qid = first + i;
            let model_arms = self.session.model().query_arm_count(qid);
            let ordinal = self.stats.admits;
            self.stats.admits += 1;
            self.stats.admit_arms_total += model_arms;
            self.stats.admit_arms_max = self.stats.admit_arms_max.max(model_arms);
            debug_assert_eq!(self.qid_ordinal.len(), qid);
            self.qid_ordinal.push(ordinal as u32);
            self.attribution.admit(qid, spec.templates);
            self.admits_since_advise += 1;
            out.push(Admission {
                qid,
                ordinal,
                evicted: None,
                model_wall: model_wall / specs.len() as u32,
                model_arms,
                readvise: None,
                pending: None,
            });
        }
        // --- Window overflow: retract the oldest resident (an O(log n)
        // leaf update, nothing priced). Only a run of one can overflow —
        // wider runs are sized to the window's room. ---
        let model = self.session.model();
        if model.live_query_count() > self.opts.window_capacity {
            debug_assert_eq!(specs.len(), 1, "a run wider than the window's room");
            // The oldest resident is the lowest live id: a scan past at
            // most the window plus the uncompacted tombstones.
            let oldest = (0..model.query_count())
                .find(|&q| model.is_live(q))
                .expect("window non-empty");
            self.retract(oldest);
            out.last_mut().expect("splice reports every spec").evicted = Some(oldest);
        }
    }

    /// Builds the owned [`AdmissionSpec`] artifacts for a raw query with
    /// **one** optimizer call: its PINUM plan cache, its access costs
    /// collected through the daemon's shared template cache, and its
    /// templates.
    ///
    /// The collection side is where streaming admission meets batched
    /// collection: the exporting call also prices the templates the
    /// admission is first in the stream to present
    /// ([`OnlineStats::templates_priced`]); every other relation reuses
    /// the shared cache. The spliced model is bit-identical to one built
    /// from a dedicated per-query `collect_pinum` call — the collector
    /// debug-asserts that (sampled).
    pub fn collect_admission(
        &mut self,
        optimizer: &Optimizer<'_>,
        query: &Query,
        builder: &BuilderOptions,
    ) -> CollectedAdmission {
        let before = self.collector.templates_priced();
        let (built, access) = self
            .collector
            .build_query(optimizer, query, &self.pool, builder);
        let priced = self.collector.templates_priced() - before;
        self.stats.templates_priced += priced;
        self.stats.collect_template_hits += query.relation_count() - priced;
        CollectedAdmission {
            cache: built.cache,
            access,
            templates: query_templates(query),
        }
    }

    /// Removes one query from the session and the attribution books (its
    /// ordinal stays booked until compaction retires the slot).
    fn retract(&mut self, qid: usize) {
        self.session.evict_query(qid);
        self.attribution.evict(qid);
        self.stats.evictions += 1;
    }

    /// Applies an in-place reweight event — "the query admitted as
    /// ordinal `admission` now runs at `weight`" — re-pricing exactly
    /// that query. If the hotter query pushed the monitor past the drift
    /// threshold, the triggered re-advise executes inline
    /// ([`ReweightOutcome::readvise`]) unless `deferred`, in which case
    /// the trigger is returned in [`ReweightOutcome::pending`] for
    /// [`Self::readvise_triggered`] (same contract as a deferred
    /// [`AdmissionSpec`]). Reweights do not advance the epoch clock. An
    /// event whose target has already slid out of the window is dropped
    /// as a counted no-op ([`OnlineStats::reweight_misses`]); an ordinal
    /// that was **never issued** is a caller bug and panics with a
    /// descriptive message.
    pub fn reweight(&mut self, admission: usize, weight: f64, deferred: bool) -> ReweightOutcome {
        let Some(qid) = self.resolve_ordinal(admission, "reweighting") else {
            self.stats.reweight_misses += 1;
            return ReweightOutcome {
                applied: false,
                readvise: None,
                pending: None,
            };
        };
        self.session.reweight_query(qid, weight);
        self.stats.reweights += 1;
        let trigger = self.drift_fired().then_some(ReadviseTrigger::Drift);
        if deferred {
            ReweightOutcome {
                applied: true,
                readvise: None,
                pending: trigger,
            }
        } else {
            ReweightOutcome {
                applied: true,
                readvise: trigger.map(|t| self.readvise_with(t)),
                pending: None,
            }
        }
    }

    /// Evicts the query admitted as ordinal `admission` from the window
    /// right now (ahead of the sliding window retiring it) — e.g. a
    /// tenant retracting a statement it no longer runs. Returns whether a
    /// live resident was evicted; a target that already slid out is a
    /// no-op, and an ordinal that was never issued panics like
    /// [`Self::reweight`]. Evictions never trigger a re-advise
    /// and do not advance the epoch clock; the next admission or
    /// reweight re-reads the drift monitor as usual.
    pub fn evict_admission(&mut self, admission: usize) -> bool {
        let Some(qid) = self.resolve_ordinal(admission, "evicting") else {
            return false;
        };
        self.retract(qid);
        true
    }

    /// Ordinal → live qid, or `None` when the admission has left the
    /// window (evicted, or compacted away with its slot). A never-issued
    /// ordinal is a caller bug and panics.
    fn resolve_ordinal(&self, admission: usize, verb: &str) -> Option<usize> {
        let issued = self.stats.admits;
        assert!(
            admission < issued,
            "{verb} unknown admission ordinal {admission} (only {issued} issued)"
        );
        let qid = u32::try_from(admission)
            .ok()
            .and_then(|ordinal| self.qid_ordinal.binary_search(&ordinal).ok())?;
        self.session.model().is_live(qid).then_some(qid)
    }

    /// Whether the window's mean priced cost has regressed past the
    /// threshold (written so a NaN mean — possible only if the state
    /// were corrupted — also fires and self-heals on the re-advise).
    fn drift_fired(&self) -> bool {
        let live = self.session.model().live_query_count();
        if live == 0 || !self.baseline_mean.is_finite() {
            return false;
        }
        let mean_now = self.session.total() / live as f64;
        let bound = self.baseline_mean * (1.0 + self.opts.drift_threshold);
        // Fires on Greater *and* on NaN (incomparable) — an unpriceable
        // window must trigger the re-advise that can heal it.
        !matches!(
            mean_now.partial_cmp(&bound),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        )
    }

    /// The re-advise the daemon would run right now, if any: epoch
    /// boundaries outrank the drift detector. Pure read — the deferred
    /// admission/reweight entry points return this for the caller to
    /// execute later.
    fn pending_trigger(&self) -> Option<ReadviseTrigger> {
        if self.admits_since_advise >= self.opts.epoch_length {
            Some(ReadviseTrigger::Epoch)
        } else if self.drift_fired() {
            Some(ReadviseTrigger::Drift)
        } else {
            None
        }
    }

    /// Forces a re-advising round right now (callers use this to flush a
    /// warm-up batch; the daemon itself re-advises on epochs and drift).
    pub fn readvise(&mut self) -> ReadviseReport {
        self.readvise_with(ReadviseTrigger::Forced)
    }

    /// Executes a re-advise previously deferred by an
    /// [`AdmissionSpec::deferred`] admission or a deferred
    /// [`Self::reweight`], under the returned trigger.
    /// Bit-identical to the inline execution provided no other mutation
    /// touched the advisor since the trigger was computed.
    pub fn readvise_triggered(&mut self, trigger: ReadviseTrigger) -> ReadviseReport {
        self.readvise_with(trigger)
    }

    fn readvise_with(&mut self, trigger: ReadviseTrigger) -> ReadviseReport {
        let start = Instant::now();
        let fulls_before = self.session.full_repricings();
        // Tombstone hygiene: once dead slots outnumber live ones, compact
        // so pricing state stays O(window) over the daemon's whole
        // lifetime instead of O(admissions ever). Totals are bit-identical
        // across compaction (tombstones price to exactly 0.0), so this
        // changes nothing observable but memory.
        let model = self.session.model();
        if model.query_count() - model.live_query_count() > model.live_query_count() {
            self.compact();
        }
        let cost_before = self.session.total();

        // Scope: when drift fired and attribution can pin it on specific
        // templates, restrict the search to candidates that can affect
        // the regressed queries (affected queries ∩ regressed set) — and
        // scope the *pricing* itself: the regressed set rides into the
        // search as a query mask, so probes re-price only the queries
        // that drifted (accepted moves re-derive exact totals).
        let regressed: Option<Vec<u32>> = if trigger == ReadviseTrigger::Drift
            && self.opts.scoped_readvise
        {
            let model = self.session.model();
            let is_live = |q| model.is_live(q);
            self.attribution
                .regressed_queries(self.session.state(), ATTRIBUTION_THRESHOLD, is_live)
        } else {
            None
        };
        let mask: Option<Selection> = regressed.as_ref().map(|r| self.scope_mask(r));

        let gopts = GreedyOptions {
            budget_bytes: self.opts.budget_bytes,
            benefit_per_byte: false,
        };
        // The tentpole handoff: the session's exact priced state rides
        // into the search, so a steady-state re-advise prices nothing it
        // does not have to.
        let mut scope = SearchScope::all().with_warm_state(self.session.state());
        if let Some(mask) = &mask {
            scope.mask = Some(mask);
        }
        if let Some(regressed) = &regressed {
            scope = scope.with_query_mask(regressed);
        }
        let result = self.opts.strategy.search_scoped(
            &self.pool,
            self.session.model(),
            &gopts,
            self.session.selection(),
            &scope,
        );
        let scoped = mask.is_some();
        let scope_candidates = mask.as_ref().map_or(self.pool.len(), Selection::len);

        // Adopt the search outcome — selection and exact priced state —
        // without re-pricing; the monitor baseline resets from it.
        let state = result
            .final_state
            .expect("every model search returns its final state");
        self.session
            .install(result.selection, state, result.full_repricings);
        let cost_after = self.session.total();
        let live = self.session.model().live_query_count();
        self.baseline_mean = if live == 0 {
            f64::INFINITY
        } else {
            cost_after / live as f64
        };
        self.attribution.capture_baseline(self.session.state());
        self.admits_since_advise = 0;

        let wall = start.elapsed();
        self.stats.readvises += 1;
        self.stats.readvise_wall += wall;
        self.stats.last_readvise_wall = wall;
        self.stats.full_repricings = self.session.full_repricings();
        if scoped {
            self.stats.scoped_readvises += 1;
        }
        match trigger {
            ReadviseTrigger::Epoch => self.stats.epoch_readvises += 1,
            ReadviseTrigger::Drift => self.stats.drift_readvises += 1,
            ReadviseTrigger::Forced => self.stats.forced_readvises += 1,
        }
        ReadviseReport {
            trigger,
            wall,
            cost_before,
            cost_after,
            picks: result.picked.len(),
            evaluations: result.evaluations,
            queries_repriced: result.queries_repriced,
            full_repricings: self.session.full_repricings() - fulls_before,
            scoped,
            scope_candidates,
        }
    }

    /// The candidate mask for a regressed query set: every candidate
    /// whose affected queries intersect the set, plus the current
    /// selection's members (so drops and swap-backs stay in play). Since
    /// the model prunes plans that cannot win under any selection from
    /// the pool, a query is affected by a candidate exactly when one of
    /// its surviving plans has an arm gated by it: the mask holds the
    /// candidates that can change a regressed query's price, not every
    /// candidate its cache mentions.
    fn scope_mask(&self, regressed: &[u32]) -> Selection {
        let model = self.session.model();
        let mut mask = Selection::empty(self.pool.len());
        for cand in 0..self.pool.len() {
            if model
                .affected(cand)
                .any(|q| regressed.binary_search(&q).is_ok())
            {
                mask.insert(cand);
            }
        }
        for id in self.session.selection().ids() {
            mask.insert(id);
        }
        mask
    }

    /// Drops eviction tombstones from the session; the attribution books
    /// and the ordinal map are remapped, so behaviour is unchanged. Runs
    /// automatically at re-advise time whenever tombstones outnumber live
    /// queries (which renumbers query ids — treat an [`Admission`]'s `qid`
    /// as valid only until the next re-advise; `ordinal` is the stable
    /// handle), and stays public for callers who want memory back sooner.
    pub fn compact(&mut self) {
        self.stats.compactions += 1;
        let remap = self.session.compact();
        self.attribution.remap(&remap);
        // Survivors keep their relative order, so their ordinals stay
        // strictly increasing; retired ordinals keep reporting misses.
        self.qid_ordinal = remap
            .iter()
            .zip(&self.qid_ordinal)
            .filter(|&(&new, _)| new != u32::MAX)
            .map(|(_, &ordinal)| ordinal)
            .collect();
    }

    /// Exact priced cost of the current selection over the live window —
    /// read from the session's spliced state (no re-pricing).
    pub fn current_cost(&self) -> f64 {
        self.session.total()
    }

    pub fn selection(&self) -> &Selection {
        self.session.selection()
    }

    pub fn model(&self) -> &pinum_core::WorkloadModel {
        self.session.model()
    }

    /// The persistent pricing session the daemon runs on.
    pub fn session(&self) -> &PricingSession {
        &self.session
    }

    /// The drift-attribution books behind scoped re-advising.
    pub fn attribution(&self) -> &DriftAttribution {
        &self.attribution
    }

    pub fn pool(&self) -> &CandidatePool {
        &self.pool
    }

    pub fn options(&self) -> &OnlineAdvisorOptions {
        &self.opts
    }

    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Exports the daemon's complete mutable state as plain flat arrays
    /// (see [`OnlineAdvisorParts`] for what is — and is not — included).
    pub fn to_parts(&self) -> OnlineAdvisorParts {
        OnlineAdvisorParts {
            model: self.session.model().to_parts(),
            selection_words: self.session.selection().words().to_vec(),
            per_query: self.session.state().per_query().to_vec(),
            full_repricings: self.session.full_repricings(),
            attribution: self.attribution.to_parts(),
            qid_ordinal: self.qid_ordinal.clone(),
            baseline_mean: self.baseline_mean,
            admits_since_advise: self.admits_since_advise,
            stats: self.stats.clone(),
        }
    }

    /// Rebuilds a daemon from [`Self::to_parts`] output over the same
    /// candidate pool and options, **bit-identical** to the exported
    /// daemon: same selection and priced bits, same counters, and the
    /// restore itself performs zero full re-pricings (the priced state is
    /// adopted, the pairwise tree rebuilt as the pure function of the
    /// per-query costs it is). The window and the ordinal book are
    /// derived from the model, so what is left to validate is the
    /// ordinal map (one strictly increasing entry per slot, each below
    /// the admission counter), the live set (no larger than the window),
    /// and the attribution books (one entry per slot, none on a dead
    /// one). Returns an error — never panics — on inconsistent or hostile
    /// input. The shared template cache starts empty.
    pub fn from_parts(
        pool: CandidatePool,
        opts: OnlineAdvisorOptions,
        parts: OnlineAdvisorParts,
    ) -> Result<Self, &'static str> {
        opts.validate()?;
        let OnlineAdvisorParts {
            model,
            selection_words,
            per_query,
            full_repricings,
            attribution,
            qid_ordinal,
            baseline_mean,
            admits_since_advise,
            stats,
        } = parts;
        // A re-advise sets the mean of exact costs (≥ 0), or `+∞`.
        if baseline_mean.is_nan() || baseline_mean < 0.0 {
            return Err("drift baseline NaN or negative");
        }
        let model = WorkloadModel::from_parts(pool.len(), model)?;
        if model.live_query_count() > opts.window_capacity {
            return Err("more live queries than the window holds");
        }
        if qid_ordinal.len() != model.query_count() {
            return Err("ordinal map sized for a different model");
        }
        if qid_ordinal.windows(2).any(|w| w[0] >= w[1])
            || qid_ordinal
                .last()
                .is_some_and(|&o| o as usize >= stats.admits)
        {
            return Err("ordinal map not strictly increasing below the admission counter");
        }
        let books = &attribution.per_query;
        if books.len() != model.query_count() {
            return Err("attribution books sized for a different model");
        }
        if (0..books.len()).any(|q| !model.is_live(q) && !books[q].is_empty()) {
            return Err("dead slot retains template ids");
        }
        let attribution = DriftAttribution::from_parts(attribution)?;
        let selection = Selection::from_words(pool.len(), selection_words)?;
        let session = PricingSession::restore(model, selection, per_query, full_repricings)?;
        Ok(Self {
            pool,
            opts,
            session,
            collector: WorkloadCollector::new(),
            attribution,
            qid_ordinal,
            baseline_mean,
            admits_since_advise,
            stats,
        })
    }

    /// The shared template cache behind [`Self::collect_admission`].
    pub fn collector(&self) -> &WorkloadCollector {
        &self.collector
    }
}

/// The [`TemplateKey`]s of every relation of `query` — the attribution
/// payload for [`AdmissionSpec::templates`].
pub fn query_templates(query: &Query) -> Vec<TemplateKey> {
    (0..query.relation_count() as RelIdx)
        .map(|rel| RelTemplate::of(query, rel).key())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_advisor::candidates::generate_candidates;
    use pinum_core::access_costs::collect_pinum;
    use pinum_core::builder::{build_cache_pinum, BuilderOptions};
    use pinum_optimizer::Optimizer;
    use pinum_query::Query;
    use pinum_workload::drift::{DriftProfile, DriftStream};
    use pinum_workload::star::StarSchema;

    const BUDGET: u64 = 1 << 30;

    /// Small drifting stream plus the pool/caches both tests and the
    /// bench experiment style of consumption need.
    #[allow(clippy::type_complexity)]
    fn fixture(
        phases: usize,
        phase_length: usize,
    ) -> (
        StarSchema,
        Vec<(Query, f64)>,
        CandidatePool,
        Vec<(PlanCache, AccessCostCatalog)>,
    ) {
        let schema = StarSchema::generate(42, 0.001);
        let profile = DriftProfile {
            phases,
            phase_length,
            edge_window: 3,
            churn: 0.05,
            growth_per_phase: 1.0,
        };
        let stream: Vec<_> = DriftStream::new(&schema, 9, profile).collect();
        let queries: Vec<(Query, f64)> = stream.into_iter().map(|d| (d.query, d.weight)).collect();
        let only: Vec<Query> = queries.iter().map(|(q, _)| q.clone()).collect();
        let pool = generate_candidates(&schema.catalog, &only);
        let optimizer = Optimizer::new(&schema.catalog);
        let models = only
            .iter()
            .map(|q| {
                let built = build_cache_pinum(&optimizer, q, &BuilderOptions::default());
                let (access, _) = collect_pinum(&optimizer, q, &pool);
                (built.cache, access)
            })
            .collect();
        (schema, queries, pool, models)
    }

    fn opts(window: usize, epoch: usize) -> OnlineAdvisorOptions {
        OnlineAdvisorOptions {
            window_capacity: window,
            epoch_length: epoch,
            ..OnlineAdvisorOptions::defaults(BUDGET)
        }
    }

    #[test]
    fn window_capacity_is_enforced() {
        let (_s, queries, pool, models) = fixture(2, 10);
        let mut advisor = OnlineAdvisor::new(pool, opts(8, 5));
        for (i, (c, a)) in models.iter().enumerate() {
            let adm = advisor.apply(AdmissionSpec::new(c, a).weight(queries[i].1));
            assert_eq!(adm.evicted.is_some(), i >= 8);
            assert_eq!(adm.ordinal, i);
            assert!(advisor.model().live_query_count() <= 8);
        }
        assert_eq!(advisor.model().live_query_count(), 8);
        assert_eq!(advisor.stats().admits, 20);
        assert_eq!(advisor.stats().evictions, 12);
    }

    #[test]
    fn epochs_readvise_on_schedule() {
        let (_s, _q, pool, models) = fixture(2, 10);
        // Disarm the drift detector so the epoch schedule is exact.
        let mut advisor = OnlineAdvisor::new(
            pool,
            OnlineAdvisorOptions {
                drift_threshold: 1e18,
                ..opts(16, 5)
            },
        );
        let mut at = Vec::new();
        for (i, (c, a)) in models.iter().enumerate() {
            if let Some(r) = advisor.apply(AdmissionSpec::new(c, a)).readvise {
                assert_eq!(r.trigger, ReadviseTrigger::Epoch);
                at.push(i);
            }
        }
        assert_eq!(at, vec![4, 9, 14, 19], "epoch boundaries off schedule");
        assert_eq!(advisor.stats().epoch_readvises, 4);
        assert_eq!(advisor.stats().readvises, 4);
    }

    #[test]
    fn readvise_never_leaves_a_worse_selection() {
        let (_s, _q, pool, models) = fixture(3, 8);
        let mut advisor = OnlineAdvisor::new(pool, opts(12, 6));
        for (c, a) in &models {
            if let Some(r) = advisor.apply(AdmissionSpec::new(c, a)).readvise {
                assert!(
                    r.cost_after <= r.cost_before * (1.0 + 1e-12)
                        || (r.cost_after.is_finite() && r.cost_before.is_infinite()),
                    "re-advise regressed: {} -> {}",
                    r.cost_before,
                    r.cost_after
                );
            }
        }
    }

    #[test]
    fn daemon_never_rebuilds_the_model() {
        let (_s, _q, pool, models) = fixture(2, 12);
        let mut advisor = OnlineAdvisor::new(pool, opts(10, 4));
        for (c, a) in &models {
            advisor.apply(AdmissionSpec::new(c, a));
        }
        assert_eq!(advisor.session().full_repricings(), 0);
        assert!(advisor.stats().admit_arms_max > 0);
        assert!(advisor.stats().readvises > 0);
    }

    #[test]
    fn steady_state_readvises_never_fully_reprice() {
        let (_s, _q, pool, models) = fixture(2, 12);
        let mut advisor = OnlineAdvisor::new(pool, opts(10, 4));
        let mut total_fulls = 0usize;
        let mut steady = 0usize;
        for (c, a) in &models {
            if let Some(r) = advisor.apply(AdmissionSpec::new(c, a)).readvise {
                total_fulls += r.full_repricings;
                // A round that kept the selection (picks unchanged is not
                // directly visible here, but zero full re-pricings must
                // hold for *every* warm-started round of this daemon).
                assert_eq!(
                    r.full_repricings, 0,
                    "warm-started re-advise performed a full re-pricing"
                );
                steady += 1;
            }
        }
        assert!(steady > 0, "no re-advise fired");
        assert_eq!(total_fulls, 0);
        assert_eq!(advisor.stats().full_repricings, 0);
        assert_eq!(advisor.session().full_repricings(), 0);
    }

    #[test]
    fn admit_collected_is_bit_identical_to_cold_collection() {
        let (schema, queries, pool, models) = fixture(2, 12);
        let optimizer = Optimizer::new(&schema.catalog);
        let builder = BuilderOptions::default();

        // Scoping off for both daemons: this test is about *collection*
        // bit-identity, and only the shared daemon carries templates.
        let o = OnlineAdvisorOptions {
            scoped_readvise: false,
            ..opts(10, 4)
        };
        // Reference daemon: cold per-query collect_pinum artifacts.
        let mut cold = OnlineAdvisor::new(pool.clone(), o);
        // Streaming daemon: collection through the shared template cache.
        let mut shared = OnlineAdvisor::new(pool.clone(), o);
        let mut rels_total = 0usize;
        for (i, (c, a)) in models.iter().enumerate() {
            let (query, weight) = &queries[i];
            rels_total += query.relation_count();
            let adm_cold = cold.apply(AdmissionSpec::new(c, a).weight(*weight));
            let collected = shared.collect_admission(&optimizer, query, &builder);
            let adm_shared = shared.apply(collected.spec(*weight));
            assert_eq!(adm_cold.qid, adm_shared.qid);
            assert_eq!(adm_cold.evicted, adm_shared.evicted);
            assert_eq!(
                adm_cold.model_arms, adm_shared.model_arms,
                "admission {i}: spliced arms diverged"
            );
            assert_eq!(
                adm_cold.readvise.is_some(),
                adm_shared.readvise.is_some(),
                "admission {i}: trigger sequences diverged"
            );
            if let (Some(rc), Some(rs)) = (&adm_cold.readvise, &adm_shared.readvise) {
                assert_eq!(rc.trigger, rs.trigger);
                assert_eq!(rc.cost_before.to_bits(), rs.cost_before.to_bits());
                assert_eq!(rc.cost_after.to_bits(), rs.cost_after.to_bits());
                assert_eq!(rc.picks, rs.picks);
            }
        }
        assert_eq!(cold.selection(), shared.selection());
        assert_eq!(
            cold.current_cost().to_bits(),
            shared.current_cost().to_bits()
        );
        // The stream actually shared templates: far fewer templates priced
        // than relation instances, none by a call of its own, and the
        // counters reconcile.
        let s = shared.stats();
        assert!(
            s.templates_priced < rels_total,
            "no template sharing: {} templates priced over {rels_total} relations",
            s.templates_priced
        );
        assert_eq!(s.templates_priced + s.collect_template_hits, rels_total);
        assert_eq!(shared.collector().templates_priced(), s.templates_priced);
        assert_eq!(shared.collector().optimizer_calls(), 0);
        assert_eq!(cold.stats().templates_priced, 0, "cold path never collects");
        // Only the shared daemon has attribution books.
        assert!(!shared.attribution().to_parts().templates.is_empty());
        assert!(cold.attribution().to_parts().templates.is_empty());
    }

    #[test]
    fn runs_are_deterministic() {
        let (_s, queries, pool, models) = fixture(2, 10);
        let run = || {
            let mut advisor = OnlineAdvisor::new(pool.clone(), opts(8, 4));
            for (i, (c, a)) in models.iter().enumerate() {
                advisor.apply(AdmissionSpec::new(c, a).weight(queries[i].1));
            }
            (
                advisor.current_cost(),
                advisor.selection().ids().collect::<Vec<_>>(),
                advisor.stats().readvises,
                advisor.stats().drift_readvises,
            )
        };
        let (c1, s1, r1, d1) = run();
        let (c2, s2, r2, d2) = run();
        assert_eq!(c1.to_bits(), c2.to_bits());
        assert_eq!(s1, s2);
        assert_eq!((r1, d1), (r2, d2));
    }

    #[test]
    fn scoping_without_templates_is_bit_identical_to_unscoped() {
        let (_s, queries, pool, models) = fixture(3, 10);
        let run = |scoped: bool| {
            let mut advisor = OnlineAdvisor::new(
                pool.clone(),
                OnlineAdvisorOptions {
                    scoped_readvise: scoped,
                    drift_threshold: 0.05,
                    ..opts(12, 8)
                },
            );
            for (i, (c, a)) in models.iter().enumerate() {
                advisor.apply(AdmissionSpec::new(c, a).weight(queries[i].1));
            }
            (
                advisor.current_cost(),
                advisor.selection().ids().collect::<Vec<_>>(),
                advisor.stats().readvises,
                advisor.stats().scoped_readvises,
            )
        };
        let (c_on, s_on, r_on, scoped_on) = run(true);
        let (c_off, s_off, r_off, scoped_off) = run(false);
        // No admission carried templates, so attribution must fall back
        // to the full scope — bit-identical runs, zero scoped rounds.
        assert_eq!(c_on.to_bits(), c_off.to_bits());
        assert_eq!(s_on, s_off);
        assert_eq!(r_on, r_off);
        assert_eq!(scoped_on, 0);
        assert_eq!(scoped_off, 0);
    }

    #[test]
    fn warm_and_cold_readvising_land_within_a_percent() {
        let (_s, _q, pool, models) = fixture(3, 10);
        let o = opts(15, 6);
        let gopts = GreedyOptions {
            budget_bytes: o.budget_bytes,
            benefit_per_byte: false,
        };
        let mut advisor = OnlineAdvisor::new(pool.clone(), o);
        // Every warm re-advise, held against a cold search over the very
        // window it re-advised.
        let check = |advisor: &OnlineAdvisor, warm: f64| {
            let cold = o.strategy.search(&pool, advisor.model(), &gopts);
            let cold = advisor.model().price_full(&cold.selection).total();
            assert!(warm.is_finite() && cold.is_finite());
            assert!(
                warm <= cold * 1.01,
                "warm-started re-advise {warm} more than 1% above cold {cold}"
            );
        };
        let mut rounds = 0;
        for (c, a) in &models {
            if let Some(r) = advisor.apply(AdmissionSpec::new(c, a)).readvise {
                check(&advisor, r.cost_after);
                rounds += 1;
            }
        }
        let r = advisor.readvise();
        check(&advisor, r.cost_after);
        assert!(rounds > 0, "no re-advise fired mid-stream");
    }

    #[test]
    fn compact_mid_stream_changes_nothing_observable() {
        let (_s, _q, pool, models) = fixture(2, 10);
        let run = |compact_at: Option<usize>| {
            let mut advisor = OnlineAdvisor::new(pool.clone(), opts(7, 5));
            for (i, (c, a)) in models.iter().enumerate() {
                advisor.apply(AdmissionSpec::new(c, a));
                if compact_at == Some(i) {
                    advisor.compact();
                }
            }
            (
                advisor.current_cost(),
                advisor.selection().ids().collect::<Vec<_>>(),
            )
        };
        let (c_base, s_base) = run(None);
        let (c_cmp, s_cmp) = run(Some(12));
        // Compaction drops tombstone slots, which regroups the pairwise
        // sum tree: totals may drift by an ulp even though every live
        // per-query cost is unchanged. Decisions must match exactly.
        assert_eq!(s_base, s_cmp);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        assert!(
            close(c_base, c_cmp),
            "current cost drifted: {c_base} vs {c_cmp}"
        );
    }

    #[test]
    fn long_streams_auto_compact_and_stay_window_sized() {
        let (_s, _q, pool, models) = fixture(3, 10);
        let window = 4;
        let mut advisor = OnlineAdvisor::new(pool, opts(window, 3));
        for (c, a) in &models {
            advisor.apply(AdmissionSpec::new(c, a));
            // Slot count must track the window, not lifetime admissions:
            // compaction fires at re-advise once tombstones outnumber
            // live queries, and an epoch is never more than 3 admits away.
            assert!(
                advisor.model().query_count() <= 2 * window + 3,
                "model grew to {} slots on a {}-query window",
                advisor.model().query_count(),
                window
            );
        }
        assert!(
            advisor.stats().compactions > 0,
            "a 30-admission stream over a 4-query window never compacted"
        );
        assert_eq!(advisor.model().live_query_count(), window);
        // The admission-ordinal book holds one entry per model slot, and
        // compaction retires evicted ordinals with their slots, so it
        // tracks the window, not lifetime admissions — and retired
        // ordinals degrade to counted misses.
        let book = advisor.to_parts().qid_ordinal;
        assert_eq!(book.len(), advisor.model().query_count());
        assert!(
            book.len() <= 2 * window + 3,
            "admission book grew to {} entries on a {}-query window",
            book.len(),
            window
        );
        assert!(book[0] > 0, "compaction never retired a dead prefix");
        assert!(!advisor.reweight(0, 9.9, false).applied);
        assert_eq!(advisor.stats().reweight_misses, 1);
    }

    #[test]
    fn drift_detector_fires_on_a_template_shift() {
        // Build two deliberately different phases with a long epoch so
        // only the drift detector can trigger between boundaries.
        let (_s, _q, pool, models) = fixture(3, 12);
        let mut advisor = OnlineAdvisor::new(
            pool,
            OnlineAdvisorOptions {
                drift_threshold: 0.05,
                ..opts(36, 1_000_000)
            },
        );
        // Warm up on phase 0 and pin a baseline.
        for (c, a) in &models[..12] {
            advisor.apply(AdmissionSpec::new(c, a));
        }
        advisor.readvise();
        // Stream the later phases; the mix shift should regress the old
        // selection enough to fire Drift before any epoch boundary.
        let mut drifted = false;
        for (c, a) in &models[12..] {
            if let Some(r) = advisor.apply(AdmissionSpec::new(c, a)).readvise {
                assert_eq!(r.trigger, ReadviseTrigger::Drift);
                drifted = true;
                break;
            }
        }
        assert!(drifted, "template shift never fired the drift detector");
    }

    #[test]
    fn reweights_reprice_one_query_and_can_fire_drift() {
        let (_s, _q, pool, models) = fixture(2, 12);
        let mut advisor = OnlineAdvisor::new(
            pool,
            OnlineAdvisorOptions {
                drift_threshold: 0.05,
                ..opts(24, 1_000_000)
            },
        );
        for (c, a) in &models[..12] {
            advisor.apply(AdmissionSpec::new(c, a));
        }
        advisor.readvise();
        let before = advisor.current_cost();
        assert!(before.is_finite());
        // Heat one resident in place until the monitor trips.
        let mut fired = None;
        let mut weight = 1.0;
        for _ in 0..24 {
            weight *= 2.0;
            if let Some(r) = advisor.reweight(3, weight, false).readvise {
                fired = Some(r);
                break;
            }
        }
        let report = fired.expect("a hot query must eventually fire drift");
        assert_eq!(report.trigger, ReadviseTrigger::Drift);
        assert!(advisor.stats().reweights > 0);
        assert_eq!(advisor.stats().reweight_misses, 0);
        assert_eq!(
            advisor.model().weight(3),
            weight,
            "reweight landed on the wrong query"
        );
        // Epoch clock untouched by reweights: no epoch re-advise fired.
        assert_eq!(advisor.stats().epoch_readvises, 0);
    }

    #[test]
    fn reweighting_an_evicted_admission_is_a_counted_noop() {
        let (_s, _q, pool, models) = fixture(2, 10);
        let mut advisor = OnlineAdvisor::new(pool, opts(4, 6));
        for (c, a) in &models[..10] {
            advisor.apply(AdmissionSpec::new(c, a));
        }
        // Admission 0 slid out of the 4-query window long ago.
        let before = advisor.current_cost();
        assert!(!advisor.reweight(0, 100.0, false).applied);
        assert_eq!(advisor.stats().reweight_misses, 1);
        assert_eq!(advisor.stats().reweights, 0);
        assert_eq!(advisor.current_cost().to_bits(), before.to_bits());
    }

    #[test]
    fn reweight_ordinals_survive_compaction() {
        let (_s, _q, pool, models) = fixture(3, 10);
        let mut advisor = OnlineAdvisor::new(pool, opts(5, 4));
        let mut last_ordinal = 0;
        for (c, a) in &models {
            last_ordinal = advisor.apply(AdmissionSpec::new(c, a)).ordinal;
        }
        assert!(
            advisor.stats().compactions > 0,
            "stream must have compacted"
        );
        // The newest admission is certainly still resident; its ordinal
        // handle must still resolve after however many compactions.
        assert!(advisor.reweight(last_ordinal, 3.5, false).applied);
        assert_eq!(advisor.stats().reweight_misses, 0);
        // Ids follow admission order, so the newest admission holds the
        // highest slot.
        let qid = advisor.model().query_count() - 1;
        assert_eq!(advisor.model().weight(qid), 3.5);
    }

    #[test]
    fn deferred_readvising_is_bit_identical_to_inline() {
        let (_s, queries, pool, models) = fixture(3, 10);
        // Inline daemon: re-advises execute inside admit/reweight.
        let mut inline = OnlineAdvisor::new(pool.clone(), opts(12, 5));
        // Deferred daemon: triggers are returned and executed one step
        // later (the server's budget gate, minus the budget).
        let mut deferred = OnlineAdvisor::new(pool.clone(), opts(12, 5));
        for (i, (c, a)) in models.iter().enumerate() {
            let templates = query_templates(&queries[i].0);
            let adm_inline = inline.apply(
                AdmissionSpec::new(c, a)
                    .weight(queries[i].1)
                    .templates(&templates),
            );
            let adm_def = deferred.apply(
                AdmissionSpec::new(c, a)
                    .weight(queries[i].1)
                    .templates(&templates)
                    .deferred(true),
            );
            let trigger = adm_def.pending;
            assert_eq!(adm_inline.qid, adm_def.qid);
            assert_eq!(adm_inline.ordinal, adm_def.ordinal);
            assert_eq!(adm_inline.evicted, adm_def.evicted);
            assert_eq!(
                adm_inline.readvise.as_ref().map(|r| r.trigger),
                trigger,
                "admission {i}: trigger sequences diverged"
            );
            if let Some(t) = trigger {
                let r_def = deferred.readvise_triggered(t);
                let r_inl = adm_inline.readvise.expect("inline fired");
                assert_eq!(r_inl.cost_before.to_bits(), r_def.cost_before.to_bits());
                assert_eq!(r_inl.cost_after.to_bits(), r_def.cost_after.to_bits());
                assert_eq!(r_inl.picks, r_def.picks);
                assert_eq!(r_inl.scoped, r_def.scoped);
            }
            // Interleave some deferred reweights to cover that path too.
            if i % 4 == 3 {
                let w = queries[i].1 * 1.5;
                let inl = inline.reweight(adm_inline.ordinal, w, false).readvise;
                let out = deferred.reweight(adm_def.ordinal, w, true);
                let t = out.pending;
                assert!(out.applied);
                assert_eq!(inl.as_ref().map(|r| r.trigger), t);
                if let Some(t) = t {
                    let r_def = deferred.readvise_triggered(t);
                    let r_inl = inl.expect("inline fired");
                    assert_eq!(r_inl.cost_after.to_bits(), r_def.cost_after.to_bits());
                }
            }
        }
        assert_eq!(inline.selection(), deferred.selection());
        assert_eq!(
            inline.current_cost().to_bits(),
            deferred.current_cost().to_bits()
        );
        assert_eq!(inline.stats().readvises, deferred.stats().readvises);
        assert_eq!(
            inline.stats().drift_readvises,
            deferred.stats().drift_readvises
        );
        assert_eq!(
            inline.stats().scoped_readvises,
            deferred.stats().scoped_readvises
        );
    }

    #[test]
    fn explicit_eviction_retracts_a_resident() {
        let (_s, _q, pool, models) = fixture(2, 10);
        let mut advisor = OnlineAdvisor::new(pool, opts(16, 1_000_000));
        let mut ordinals = Vec::new();
        for (c, a) in &models[..8] {
            ordinals.push(advisor.apply(AdmissionSpec::new(c, a)).ordinal);
        }
        assert_eq!(advisor.model().live_query_count(), 8);
        let before = advisor.current_cost();
        assert!(advisor.evict_admission(ordinals[2]));
        assert_eq!(advisor.model().live_query_count(), 7);
        assert_eq!(advisor.stats().evictions, 1);
        assert!(
            advisor.current_cost() <= before,
            "evicting a resident cannot raise the priced total"
        );
        // Evicting it again (or reweighting it) is a clean no-op.
        assert!(!advisor.evict_admission(ordinals[2]));
        assert!(!advisor.reweight(ordinals[2], 5.0, false).applied);
        assert_eq!(advisor.stats().reweight_misses, 1);
        // The remaining residents still resolve.
        assert!(advisor.evict_admission(ordinals[7]));
        assert_eq!(advisor.model().live_query_count(), 6);
    }

    /// A parts round-trip mid-stream is invisible: the restored daemon
    /// finishes the stream bit-identically to one that never stopped —
    /// selection, priced bits, counters, ordinal handles — and the
    /// restore itself performs zero full re-pricings. Before the export
    /// a mid-window eviction, a compaction and a second mid-window
    /// eviction leave the derived window with a renumbering behind it and
    /// a tombstone inside it.
    #[test]
    fn parts_roundtrip_resumes_bit_identically() {
        let (_s, queries, pool, models) = fixture(3, 10);
        let o = OnlineAdvisorOptions {
            drift_threshold: 0.05,
            ..opts(12, 5)
        };
        let drive = |advisor: &mut OnlineAdvisor, range: std::ops::Range<usize>| {
            for i in range {
                let templates = query_templates(&queries[i].0);
                advisor.apply(
                    AdmissionSpec::new(&models[i].0, &models[i].1)
                        .weight(queries[i].1)
                        .templates(&templates),
                );
                if i % 7 == 6 {
                    advisor.reweight(i, queries[i].1 * 2.0, false);
                }
                match i {
                    13 => assert!(advisor.evict_admission(9)),
                    15 => advisor.compact(),
                    16 => assert!(advisor.evict_admission(12)),
                    _ => {}
                }
            }
        };
        let mut baseline = OnlineAdvisor::new(pool.clone(), o);
        drive(&mut baseline, 0..models.len());

        let mut first = OnlineAdvisor::new(pool.clone(), o);
        drive(&mut first, 0..17);
        let parts = first.to_parts();
        let fulls_at_export = parts.full_repricings;
        let mut restored =
            OnlineAdvisor::from_parts(pool.clone(), o, parts).expect("exported parts are valid");
        assert_eq!(restored.session().full_repricings(), fulls_at_export);
        assert_eq!(
            restored.current_cost().to_bits(),
            first.current_cost().to_bits()
        );
        drive(&mut restored, 17..models.len());

        assert_eq!(baseline.selection(), restored.selection());
        assert_eq!(
            baseline.current_cost().to_bits(),
            restored.current_cost().to_bits()
        );
        assert_eq!(
            baseline.session().state().per_query(),
            restored.session().state().per_query()
        );
        let (b, r) = (baseline.stats(), restored.stats());
        assert_eq!(b.admits, r.admits);
        assert_eq!(b.evictions, r.evictions);
        assert_eq!(b.reweights, r.reweights);
        assert_eq!(b.readvises, r.readvises);
        assert_eq!(b.drift_readvises, r.drift_readvises);
        assert_eq!(b.scoped_readvises, r.scoped_readvises);
        assert_eq!(b.compactions, r.compactions);
        assert_eq!(b.full_repricings, r.full_repricings);
        let (b, r) = (baseline.to_parts(), restored.to_parts());
        assert_eq!(b.qid_ordinal, r.qid_ordinal);
        assert_eq!(b.model.live, r.model.live);
        assert_eq!(b.attribution.templates.len(), r.attribution.templates.len());
    }

    /// Corrupted parts are rejected with typed errors, never panics.
    #[test]
    fn hostile_advisor_parts_are_rejected() {
        let (_s, queries, pool, models) = fixture(2, 8);
        let o = opts(10, 4);
        let mut advisor = OnlineAdvisor::new(pool.clone(), o);
        for (i, (c, a)) in models.iter().enumerate() {
            let templates = query_templates(&queries[i].0);
            advisor.apply(
                AdmissionSpec::new(c, a)
                    .weight(queries[i].1)
                    .templates(&templates),
            );
        }
        // A mid-window eviction leaves a dead slot in the parts.
        assert!(advisor.evict_admission(advisor.stats().admits - 2));
        let good = advisor.to_parts();
        assert!(OnlineAdvisor::from_parts(pool.clone(), o, good.clone()).is_ok());
        let dead = good
            .model
            .live
            .iter()
            .position(|&l| !l)
            .expect("a dead slot");

        let mut p = good.clone();
        p.qid_ordinal.swap(0, 1); // ordinals out of admission order
        assert!(OnlineAdvisor::from_parts(pool.clone(), o, p).is_err());

        let mut p = good.clone();
        p.stats.admits -= 1; // the newest resident's ordinal was never issued
        assert!(OnlineAdvisor::from_parts(pool.clone(), o, p).is_err());

        let mut p = good.clone();
        p.qid_ordinal.pop();
        assert!(OnlineAdvisor::from_parts(pool.clone(), o, p).is_err());

        for baseline_mean in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let mut p = good.clone();
            p.baseline_mean = baseline_mean;
            assert!(OnlineAdvisor::from_parts(pool.clone(), o, p).is_err());
        }

        // Per-query costs no pricing produces: a live query's NaN or
        // negative cost, a tombstone's non-zero one. Refused before the
        // restored state is priced or checked.
        let live = good
            .model
            .live
            .iter()
            .position(|&l| l)
            .expect("a live slot");
        for (q, cost) in [(live, f64::NAN), (live, -1.0), (dead, 1.0), (dead, -0.0)] {
            let mut p = good.clone();
            p.per_query[q] = cost;
            assert!(OnlineAdvisor::from_parts(pool.clone(), o, p).is_err());
        }

        let mut p = good.clone();
        p.per_query.pop();
        assert!(OnlineAdvisor::from_parts(pool.clone(), o, p).is_err());

        let mut p = good.clone();
        p.selection_words.push(u64::MAX);
        assert!(OnlineAdvisor::from_parts(pool.clone(), o, p).is_err());

        let mut p = good.clone();
        p.attribution.per_query[dead] = vec![0]; // a dead slot with templates
        assert!(OnlineAdvisor::from_parts(pool.clone(), o, p).is_err());

        // A pool size nothing may be sized from: refused before the
        // model's per-candidate index is allocated.
        for pool_size in [u64::MAX, pool.len() as u64 + 1] {
            let mut p = good.clone();
            p.model.pool_size = pool_size;
            assert!(OnlineAdvisor::from_parts(pool.clone(), o, p).is_err());
        }
    }

    #[test]
    fn attributed_stream_scopes_drift_readvises() {
        let (_s, queries, pool, models) = fixture(3, 12);
        let run = |scoped: bool| {
            let mut advisor = OnlineAdvisor::new(
                pool.clone(),
                OnlineAdvisorOptions {
                    drift_threshold: 0.05,
                    scoped_readvise: scoped,
                    ..opts(18, 1_000_000)
                },
            );
            // Warm up on phase 0 and pin a baseline so the later phases'
            // template shift can fire the drift detector.
            for (i, (c, a)) in models.iter().enumerate() {
                let templates = query_templates(&queries[i].0);
                advisor.apply(
                    AdmissionSpec::new(c, a)
                        .weight(queries[i].1)
                        .templates(&templates),
                );
                if i == 11 {
                    advisor.readvise();
                }
            }
            advisor.readvise();
            (advisor.current_cost(), advisor.stats().clone())
        };
        let (scoped_cost, scoped_stats) = run(true);
        let (full_cost, full_stats) = run(false);
        assert!(scoped_cost.is_finite() && full_cost.is_finite());
        assert_eq!(full_stats.scoped_readvises, 0);
        // Drift fired on this stream (the template shift), and with
        // attribution the drift rounds ran scoped.
        assert!(scoped_stats.drift_readvises > 0, "no drift on this stream");
        assert!(
            scoped_stats.scoped_readvises > 0,
            "attributed drift never scoped a re-advise"
        );
        // Scoping costs at most a whisker of quality on this fixture.
        assert!(
            scoped_cost <= full_cost * 1.05,
            "scoped quality fell off: {scoped_cost} vs {full_cost}"
        );
    }
}
