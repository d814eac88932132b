//! # Workload-scale pricing engine — SoA kernel
//!
//! [`CacheCostModel`](crate::CacheCostModel) prices *one* query by walking
//! every cached plan × relation × access-path entry on every call. The
//! advisor's greedy loop prices the **whole workload once per candidate
//! probe**, so this module precomputes the "simple numerical calculations"
//! of §II once per workload and evaluates them incrementally — and it lays
//! the precomputed arithmetic out for the hardware, not for the type
//! system.
//!
//! ## Data layout (struct-of-arrays)
//!
//! Flattening no longer materializes nested `Vec`s per plan and slot.
//! [`WorkloadModel::build`] packs every query into four flat, contiguous
//! CSR-style arrays:
//!
//! * `arm_costs: Vec<f64>` / `arm_cands: Vec<u32>` — all candidate-gated
//!   access arms of the whole workload, ascending by cost within a slot.
//!   The trailing **always-available** arm of a slot (sequential scan or a
//!   materialized index) is split out into a scalar on the slot, so the
//!   arrays contain only arms whose applicability depends on the
//!   selection;
//! * `slots: Vec<SlotMeta>` — per `(plan, relation)` slot: coefficients,
//!   the always-arm costs, and `[start, end)` extents into the arm arrays
//!   for the standalone and probe arm runs;
//! * `plans: Vec<PlanMeta>` — internal cost plus a slot extent;
//! * `qmeta: Vec<QueryMeta>` — a plan extent, the candidate-footprint
//!   prefilters (below), and the query's arm count.
//!
//! Pricing a slot is then a **branchless min-scan**: seed the accumulator
//! with the always-arm cost (`+∞` when the slot has none) and scan the
//! arm run, substituting `+∞` for arms whose candidate bit is clear in the
//! selection view. Because arms are ascending by cost and pruned below the
//! always arm, the masked minimum is bit-identical to "first applicable
//! arm wins" (ties share the same `f64` bits; arm costs are finite, so
//! `+∞` means exactly "inapplicable"). The scan reads two flat arrays and
//! one bitset word per arm — no pointer chasing, no `Option`, and the
//! loop autovectorizes.
//!
//! The selection itself is snapshotted per pricing call into a `SelView`
//! — a fixed-width copy of the selection's bitset words — so the hot loop
//! tests membership with one word load and no `Option` compares. A delta
//! toggles its probe's bits on the view in place and restores them after.
//!
//! ## Prefilters
//!
//! On top of the packed queries sit two per-query footprint structures,
//! both maintained under streaming mutation:
//!
//! * the **inverted index** `candidate → sorted live query ids` (as
//!   before): adding/dropping candidate `c` can only re-price queries
//!   whose arms mention `c`;
//! * a per-query **touched-candidate list** (sorted, in one CSR array)
//!   plus a 64-bit **bloom filter** over `candidate mod 64`.
//!   [`WorkloadModel::query_touches`] answers "can this candidate change
//!   this query?" with one AND plus (on a bloom hit) a binary search —
//!   zero pointer loads on the miss path. Scoped/online consumers use it
//!   to skip untouched queries without consulting the inverted index.
//!
//! The invariant for both: a query not in `affected(c)` (equivalently,
//! `query_touches(q, c) == false`) prices identically with and without
//! `c` in the selection, under **every** base selection.
//!
//! ## Totals — fixed-shape pairwise sum tree
//!
//! A [`PricedWorkload`] no longer stores a scalar total next to the
//! per-query costs: it maintains a **fixed-shape pairwise partial-sum
//! tree** over them (power-of-two capacity, zero-padded). The workload
//! total is the root; re-totaling after a delta that re-prices `k`
//! queries is a read-only descent costing O(k·log n)
//! ([`PricedWorkload::overlaid_total`]) instead of an O(n) re-sum, and
//! splicing an accepted move updates O(k·log n) tree nodes
//! ([`PricedWorkload::apply_changed`]).
//!
//! **Determinism contract:** the tree *shape* (not evaluation order)
//! defines the bit pattern of every total. Padding with `+0.0` is exact,
//! so totals are invariant under capacity growth, and a delta total is
//! bit-identical to a full re-pricing under the modified selection —
//! debug-asserted on a `PINUM_ASSERT_SAMPLE`d schedule, like every other
//! equivalence in this crate. The free function [`pairwise_total`] is the
//! canonical scalar form of the same shape: any code that sums per-query
//! costs by hand (naive reference engines, tests) must use it to stay
//! bit-comparable.
//!
//! ## Incremental pricing — one delta kernel
//!
//! [`WorkloadModel::price_full`] prices every query. Every other pricing
//! question is a [`Probe`] — a virtual add, drop or swap — and one private
//! body answers it: toggle the probe's bits on the view, re-price only the
//! affected queries, restore the bits, and re-total through the sum tree.
//! [`WorkloadModel::price_probe_into`] runs it for one probe,
//! [`WorkloadModel::price_delta_batch`] for many over one view. Queries
//! whose re-priced cost is bit-identical to the stored cost are dropped
//! from the `changed` list (exact, since the comparison is on bits) — so
//! the splice a search strategy applies afterwards is proportional to
//! what actually moved.
//!
//! ## Streaming — the workload as a mutable object
//!
//! [`WorkloadModel::admit_batch`] flattens a run of `(plan cache, access
//! catalog)` pairs and appends them to the packed arrays in O(those
//! queries' arms). [`WorkloadModel::evict_query`] retracts a query eagerly from
//! the inverted index and tombstones its metadata (its packed arm data
//! becomes unreachable and is reclaimed by [`WorkloadModel::compact`],
//! which rebuilds the arrays over the survivors — bit-identical to a
//! fresh build). [`WorkloadModel::reweight_query`] is O(1). Every
//! mutation debug-asserts (sampled) that the maintained index, footprint
//! lists, and blooms match a from-scratch recomputation.
//!
//! The arithmetic deliberately mirrors `CacheCostModel::estimate` term
//! for term (same entry order, same addition order, same tie-breaking),
//! so the incremental advisor reproduces the naive advisor's pick
//! sequence exactly; `CacheCostModel::estimate` is the equivalence oracle
//! the kernel is tested against.

use crate::access_costs::AccessCostCatalog;
use crate::cache::PlanCache;
use crate::candidates::Selection;
use pinum_cost::scan::cost_index_scan;
use pinum_query::RelIdx;

/// Sentinel for "always available" access arms (sequential scans and
/// materialized catalog indexes): applicable under every selection.
pub(crate) const ALWAYS: u32 = u32::MAX;

/// One pre-resolved access path: its (pre-priced) cost and the pool
/// candidate that must be selected for it to apply. This is the
/// *flattening* representation — the packed kernel splits it into the
/// parallel cost/candidate arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct AccessArm {
    pub(crate) cost: f64,
    pub(crate) candidate: u32,
}

/// One contributing relation slot of a flattened plan (flattening form).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Slot {
    /// Coefficient on the standalone access cost (0 ⇒ applicability-only).
    pub(crate) coef: f64,
    /// Coefficient on the per-probe access cost (0 ⇒ no probe term).
    pub(crate) pcoef: f64,
    /// Whether the plan requires an interesting order on this relation
    /// (if so, the slot is inapplicable when no standalone arm is live).
    pub(crate) required: bool,
    /// Standalone access arms, ascending by cost.
    pub(crate) standalone: Vec<AccessArm>,
    /// Probe arms pre-priced at this plan's loop count, ascending by cost.
    pub(crate) probes: Vec<AccessArm>,
}

/// One flattened cached plan: internal cost plus contributing slots in
/// relation order (flattening form).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FlatPlan {
    pub(crate) internal: f64,
    pub(crate) slots: Vec<Slot>,
}

/// One flattened query (flattening form; packed into the SoA arrays by
/// [`WorkloadModel::push_query`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QueryModel {
    pub(crate) plans: Vec<FlatPlan>,
}

/// Sums `costs` with the **fixed-shape pairwise tree** this crate uses
/// for every workload total: conceptually a perfect binary tree over
/// `len.next_power_of_two()` zero-padded leaves, reduced bottom-up. This
/// is the canonical total — [`PricedWorkload::total`] is bit-identical to
/// `pairwise_total(state.per_query())` — so any hand-rolled reference
/// engine must sum through this function (not `Iterator::sum`) to stay
/// bit-comparable with the kernel.
pub fn pairwise_total(costs: &[f64]) -> f64 {
    fn node(costs: &[f64], lo: usize, span: usize) -> f64 {
        if lo >= costs.len() {
            // A fully padded subtree sums to exactly +0.0 — skipping the
            // zero additions cannot change any bit.
            return 0.0;
        }
        if span == 1 {
            return costs[lo];
        }
        let half = span / 2;
        node(costs, lo, half) + node(costs, lo + half, half)
    }
    node(costs, 0, costs.len().next_power_of_two().max(1))
}

/// Tree capacity for `len` leaves: the padding power of two.
fn tree_cap(len: usize) -> usize {
    len.next_power_of_two().max(1)
}

/// A priced workload snapshot: per-query weighted costs under one
/// selection, plus the fixed-shape pairwise sum tree over them. The tree
/// is fully determined by the costs (equality compares costs only), and
/// the root is the workload total — see the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct PricedWorkload {
    per_query: Vec<f64>,
    /// 1-based segment-tree array over `tree_cap(per_query.len())`
    /// zero-padded leaves; `tree[1]` is the total, leaf `q` lives at
    /// `tree[cap + q]`.
    tree: Vec<f64>,
}

impl PartialEq for PricedWorkload {
    fn eq(&self, other: &Self) -> bool {
        // The tree is a pure function of the costs.
        self.per_query == other.per_query
    }
}

impl PricedWorkload {
    /// Builds the snapshot (and its sum tree) from per-query costs.
    pub fn from_costs(per_query: Vec<f64>) -> Self {
        let cap = tree_cap(per_query.len());
        let mut tree = vec![0.0; 2 * cap];
        tree[cap..cap + per_query.len()].copy_from_slice(&per_query);
        for i in (1..cap).rev() {
            tree[i] = tree[2 * i] + tree[2 * i + 1];
        }
        Self { per_query, tree }
    }

    /// The workload total — the root of the sum tree.
    pub fn total(&self) -> f64 {
        self.tree[1]
    }

    /// Per-query weighted costs (tombstones hold exactly 0.0).
    pub fn per_query(&self) -> &[f64] {
        &self.per_query
    }

    /// Replaces one query's cost, updating the O(log n) tree path above
    /// its leaf.
    pub fn set_query_cost(&mut self, query: usize, cost: f64) {
        self.per_query[query] = cost;
        let cap = self.tree.len() / 2;
        let mut i = cap + query;
        self.tree[i] = cost;
        while i > 1 {
            i /= 2;
            self.tree[i] = self.tree[2 * i] + self.tree[2 * i + 1];
        }
    }

    /// Appends newly admitted queries' costs. Amortized O(log n) each,
    /// with at most **one** capacity rebuild per call: when the leaf row
    /// cannot hold them the tree is rebuilt at the next power of two,
    /// which is exact (padding adds +0.0), so totals never change bits
    /// across growth. The result does not depend on how a run of costs
    /// is split across calls: the tree is a pure function of (leaves,
    /// capacity) and the final capacity is the same power of two either
    /// way.
    pub fn extend_query_costs(&mut self, costs: &[f64]) {
        let need = self.per_query.len() + costs.len();
        if need > self.tree.len() / 2 {
            self.per_query.extend_from_slice(costs);
            let all = std::mem::take(&mut self.per_query);
            *self = Self::from_costs(all);
        } else {
            for &cost in costs {
                let q = self.per_query.len();
                self.per_query.push(cost);
                self.set_query_cost(q, cost);
            }
        }
    }

    /// Splices a delta's `(query, cost)` list (ascending by query) into
    /// the snapshot — O(changed·log n). After this,
    /// [`Self::total`] equals what [`Self::overlaid_total`] returned for
    /// the same list, bit for bit.
    pub fn apply_changed(&mut self, changed: &[(u32, f64)]) {
        for &(q, cost) in changed {
            self.set_query_cost(q as usize, cost);
        }
    }

    /// The total the tree *would* have with `changed` (ascending by
    /// query, at most one entry per query) overlaid — read-only,
    /// O(changed·log n): subtrees containing no changed leaf are read
    /// straight from the tree, so the additions performed are exactly the
    /// tree-shape additions along the changed leaves' root paths.
    pub fn overlaid_total(&self, changed: &[(u32, f64)]) -> f64 {
        if changed.is_empty() {
            return self.tree[1];
        }
        self.overlaid_node(1, 0, self.tree.len() / 2, changed)
    }

    fn overlaid_node(&self, node: usize, lo: usize, span: usize, changed: &[(u32, f64)]) -> f64 {
        if changed.is_empty() {
            return self.tree[node];
        }
        if span == 1 {
            debug_assert_eq!(changed.len(), 1, "duplicate changed query {lo}");
            return changed[0].1;
        }
        let half = span / 2;
        let mid = lo + half;
        let split = changed.partition_point(|&(q, _)| (q as usize) < mid);
        let left = self.overlaid_node(2 * node, lo, half, &changed[..split]);
        let right = self.overlaid_node(2 * node + 1, mid, half, &changed[split..]);
        left + right
    }

    /// Sampled (`PINUM_ASSERT_SAMPLE`) debug re-check that this state is
    /// **bit-identical** to `model.price_full(selection)` — the one
    /// equivalence rule behind every spliced-state consumer (the pricing
    /// session and the search strategies' accepted-move splices).
    /// Compiled away in release builds.
    pub fn debug_assert_bit_identical_to_full(&self, model: &WorkloadModel, selection: &Selection) {
        #[cfg(debug_assertions)]
        if crate::sampling::should_assert() {
            let full = model.price_full(selection);
            debug_assert!(
                self.total().to_bits() == full.total().to_bits()
                    && self.per_query.len() == full.per_query.len()
                    && self
                        .per_query
                        .iter()
                        .zip(&full.per_query)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "incrementally maintained priced state diverged from a full re-pricing: \
                 {} vs {}",
                self.total(),
                full.total()
            );
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (model, selection);
        }
    }
}

/// One packed `(plan, relation)` slot: coefficients, the always-arm
/// scalars, and `[start, end)` extents into the shared arm arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SlotMeta {
    /// Coefficient on the standalone access cost (0 ⇒ applicability-only).
    coef: f64,
    /// Coefficient on the per-probe access cost (0 ⇒ no probe term).
    pcoef: f64,
    /// Cost of the slot's always-available standalone arm, or `+∞` when
    /// every standalone arm is candidate-gated. Seeds the min-scan.
    s_always: f64,
    /// Same for the probe arms.
    p_always: f64,
    /// Candidate-gated standalone arm run in the arm arrays.
    s_start: u32,
    s_end: u32,
    /// Candidate-gated probe arm run in the arm arrays.
    p_start: u32,
    p_end: u32,
    /// Whether the plan requires an interesting order on this relation
    /// (if so, the slot is inapplicable when no standalone arm is live).
    required: bool,
}

/// One packed cached plan: internal cost plus a slot extent.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlanMeta {
    internal: f64,
    slot_start: u32,
    slot_end: u32,
}

/// One packed query: a plan extent, the candidate-footprint prefilters,
/// and the flattened arm count (tombstones zero everything).
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueryMeta {
    plan_start: u32,
    plan_end: u32,
    /// Sorted distinct candidates this query's arms mention, as an extent
    /// into the shared `touched` CSR array.
    touched_start: u32,
    touched_end: u32,
    /// Bloom filter over the touched candidates (bit `c mod 64`): a clear
    /// bit proves the candidate cannot re-price this query.
    bloom: u64,
    /// Flattened access arms (standalone + probe, always-arms included).
    arm_count: u32,
}

/// The packed model exploded into flat parallel vectors of primitives —
/// the serialization surface of [`WorkloadModel::to_parts`] /
/// [`WorkloadModel::from_parts`]. Each `slot_*` / `plan_*` / `query_*`
/// group is a struct-of-arrays view of the corresponding private meta
/// array, so a snapshot writer can stream every field as one contiguous
/// length-prefixed section with no pointer chasing. Derived data (the
/// inverted index and the live count) is deliberately absent:
/// `from_parts` recomputes it, which doubles as validation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WorkloadModelParts {
    /// Candidate pool cardinality (`u64` so the field width is
    /// platform-independent on the wire).
    pub pool_size: u64,
    pub arm_costs: Vec<f64>,
    pub arm_cands: Vec<u32>,
    pub slot_coef: Vec<f64>,
    pub slot_pcoef: Vec<f64>,
    pub slot_s_always: Vec<f64>,
    pub slot_p_always: Vec<f64>,
    pub slot_s_start: Vec<u32>,
    pub slot_s_end: Vec<u32>,
    pub slot_p_start: Vec<u32>,
    pub slot_p_end: Vec<u32>,
    pub slot_required: Vec<bool>,
    pub plan_internal: Vec<f64>,
    pub plan_slot_start: Vec<u32>,
    pub plan_slot_end: Vec<u32>,
    pub query_plan_start: Vec<u32>,
    pub query_plan_end: Vec<u32>,
    pub query_touched_start: Vec<u32>,
    pub query_touched_end: Vec<u32>,
    pub query_bloom: Vec<u64>,
    pub query_arm_count: Vec<u32>,
    pub touched: Vec<u32>,
    pub weights: Vec<f64>,
    pub live: Vec<bool>,
}

/// Words a [`SelView`] keeps inline before spilling to the heap: 16×64 =
/// 1024 candidates, far above every workload in the experiments.
const INLINE_WORDS: usize = 16;

/// A per-pricing-call snapshot of the selection as a fixed-width bitset.
/// The hot min-scan tests arm applicability with a single word load — no
/// `Option` compares, no bounds surprises (the view is always `pool_size`
/// bits wide, zero padded past the selection's own word count). A delta
/// moves the view to its probe's selection with [`Self::set`] and back
/// again afterwards, so one view serves a whole batch of probes.
struct SelView {
    nwords: usize,
    inline: [u64; INLINE_WORDS],
    spill: Vec<u64>,
}

impl SelView {
    fn new(pool_size: usize, selection: &Selection) -> Self {
        let nwords = pool_size.div_ceil(64).max(1);
        let mut view = Self {
            nwords,
            inline: [0u64; INLINE_WORDS],
            spill: if nwords > INLINE_WORDS {
                vec![0u64; nwords]
            } else {
                Vec::new()
            },
        };
        let src = selection.word_slice();
        let dst = view.words_mut();
        let n = src.len().min(nwords);
        dst[..n].copy_from_slice(&src[..n]);
        view
    }

    fn words(&self) -> &[u64] {
        if self.spill.is_empty() {
            &self.inline[..self.nwords]
        } else {
            &self.spill
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        if self.spill.is_empty() {
            &mut self.inline[..self.nwords]
        } else {
            &mut self.spill
        }
    }

    /// Sets (`on`) or clears candidate `c`'s bit, O(1).
    fn set(&mut self, c: usize, on: bool) {
        let w = c / 64;
        if w < self.nwords {
            let bit = 1u64 << (c % 64);
            let word = &mut self.words_mut()[w];
            *word = if on { *word | bit } else { *word & !bit };
        }
    }

    /// Moves the view to `probe`'s selection (`apply`) or back from it.
    fn toggle(&mut self, probe: Probe, apply: bool) {
        match probe {
            Probe::Add { cand } => self.set(cand, apply),
            Probe::Drop { cand } => self.set(cand, !apply),
            Probe::Swap { add, drop } => {
                self.set(add, apply);
                self.set(drop, !apply);
            }
        }
    }
}

/// The branchless core: minimum over `init` and every arm whose candidate
/// bit is set in `words`. Arm costs are finite, so `+∞` encodes
/// "inapplicable"; arms are ascending by cost below the always arm, so
/// the masked min carries the exact bits of "first applicable arm wins".
#[inline]
fn min_arm(costs: &[f64], cands: &[u32], words: &[u64], init: f64) -> f64 {
    let mut m = init;
    for (&cost, &cand) in costs.iter().zip(cands) {
        let sel = (words[(cand >> 6) as usize] >> (cand & 63)) & 1;
        let x = if sel != 0 { cost } else { f64::INFINITY };
        m = if x < m { x } else { m };
    }
    m
}

/// The precomputed workload pricing engine, packed as struct-of-arrays.
/// See the module docs for the layout and invariants.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadModel {
    /// All candidate-gated arm costs, slot by slot (standalone run then
    /// probe run), query by query, ascending by cost within a run.
    arm_costs: Vec<f64>,
    /// Parallel array: the pool candidate gating each arm.
    arm_cands: Vec<u32>,
    slots: Vec<SlotMeta>,
    plans: Vec<PlanMeta>,
    qmeta: Vec<QueryMeta>,
    /// CSR array of per-query sorted distinct touched candidates.
    touched: Vec<u32>,
    /// Per-query workload weight (1.0 at build/admit time; 0.0 for
    /// tombstones). A query contributes `weight × price` to every total.
    weights: Vec<f64>,
    /// Liveness per query slot: evicted queries leave a tombstone so ids
    /// stay stable for callers holding them.
    live: Vec<bool>,
    /// Number of live (non-evicted) query slots.
    live_count: usize,
    /// Inverted index: candidate id → sorted query ids whose price can
    /// change when the candidate joins the selection. Only live queries
    /// appear (eviction retracts its entries eagerly).
    affected: Vec<Vec<u32>>,
    pool_size: usize,
}

impl WorkloadModel {
    /// Flattens per-query `(plan cache, access-cost catalog)` models into
    /// the packed pricing structure. `pool_size` is the candidate pool
    /// cardinality the access catalogs were collected against.
    pub fn build<'a, I>(pool_size: usize, models: I) -> Self
    where
        I: IntoIterator<Item = (&'a PlanCache, &'a AccessCostCatalog)>,
    {
        Self::assemble(pool_size, flatten_models(models))
    }

    /// A model holding zero queries over a pool.
    fn empty(pool_size: usize) -> Self {
        Self {
            arm_costs: Vec::new(),
            arm_cands: Vec::new(),
            slots: Vec::new(),
            plans: Vec::new(),
            qmeta: Vec::new(),
            touched: Vec::new(),
            weights: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            affected: vec![Vec::new(); pool_size],
            pool_size,
        }
    }

    /// Packs flattened queries in order and indexes them (serial — the
    /// deterministic part of construction, shared by batch build,
    /// streaming admission, and compaction).
    fn assemble(pool_size: usize, queries: Vec<QueryModel>) -> Self {
        let mut out = Self::empty(pool_size);
        for qm in &queries {
            out.push_query(qm);
            out.finish_admit(1.0);
        }
        out
    }

    /// Appends one arm run to the packed arrays, splitting a trailing
    /// always-available arm out into the returned scalar (`+∞` when the
    /// run has none). Arm pruning guarantees at most one always arm, in
    /// last position.
    fn push_arms(&mut self, arms: &[AccessArm]) -> (u32, u32, f64) {
        let start = self.arm_costs.len() as u32;
        let mut always = f64::INFINITY;
        for arm in arms {
            debug_assert!(
                arm.cost.is_finite(),
                "access arm cost must be finite (∞ encodes inapplicability)"
            );
            if arm.candidate == ALWAYS {
                debug_assert!(
                    always.is_infinite(),
                    "more than one always-available arm survived pruning"
                );
                always = arm.cost;
            } else {
                self.arm_costs.push(arm.cost);
                self.arm_cands.push(arm.candidate);
            }
        }
        (start, self.arm_costs.len() as u32, always)
    }

    /// Packs one flattened query onto the end of the SoA arrays and
    /// pushes its [`QueryMeta`] (footprint list, bloom, arm count).
    /// [`Self::finish_admit`] must follow to index and weight it.
    fn push_query(&mut self, qm: &QueryModel) {
        let plan_start = self.plans.len() as u32;
        let arm_lo = self.arm_cands.len();
        let mut arm_count = 0u32;
        for plan in &qm.plans {
            let slot_start = self.slots.len() as u32;
            for slot in &plan.slots {
                arm_count += (slot.standalone.len() + slot.probes.len()) as u32;
                let (s_start, s_end, s_always) = self.push_arms(&slot.standalone);
                let (p_start, p_end, p_always) = self.push_arms(&slot.probes);
                self.slots.push(SlotMeta {
                    coef: slot.coef,
                    pcoef: slot.pcoef,
                    s_always,
                    p_always,
                    s_start,
                    s_end,
                    p_start,
                    p_end,
                    required: slot.required,
                });
            }
            self.plans.push(PlanMeta {
                internal: plan.internal,
                slot_start,
                slot_end: self.slots.len() as u32,
            });
        }
        let touched_start = self.touched.len() as u32;
        collect_touched(&self.arm_cands[arm_lo..], &mut self.touched);
        let mut bloom = 0u64;
        for &c in &self.touched[touched_start as usize..] {
            bloom |= 1u64 << (c & 63);
        }
        self.qmeta.push(QueryMeta {
            plan_start,
            plan_end: self.plans.len() as u32,
            touched_start,
            touched_end: self.touched.len() as u32,
            bloom,
            arm_count,
        });
    }

    /// Indexes and weights the most recently packed query. The new id is
    /// the largest ever issued, so every inverted-index insertion is an
    /// O(1) push that keeps the lists sorted.
    fn finish_admit(&mut self, weight: f64) {
        let qid = (self.qmeta.len() - 1) as u32;
        let qm = self.qmeta[qid as usize];
        for &c in &self.touched[qm.touched_start as usize..qm.touched_end as usize] {
            validate_candidate(c, self.pool_size);
            self.affected[c as usize].push(qid);
        }
        self.weights.push(weight);
        self.live.push(true);
        self.live_count += 1;
    }

    /// Splices a run of `(cache, access, weight)` queries (weights finite
    /// and > 0; a weight is e.g. an observed execution frequency) in one
    /// maintenance pass. Every query is flattened and packed in O(its
    /// plans and access arms) — the rest of the workload is never touched
    /// — the inverted index takes each newcomer's entries as O(1) sorted
    /// pushes (new ids are issued in ascending order, so the lists stay
    /// sorted), and the expensive index-rebuild debug assert runs
    /// **once** per call. Returns the first new query id; the run occupies
    /// `first..first + queries.len()`.
    ///
    /// How a stream is cut into runs changes no bit: admission never
    /// reads other queries' state.
    pub fn admit_batch(&mut self, queries: &[(&PlanCache, &AccessCostCatalog, f64)]) -> usize {
        let first = self.qmeta.len();
        // Every issued id stays below `u32::MAX`, the tombstone mark of
        // `compact`'s remap.
        assert!(
            first + queries.len() <= u32::MAX as usize,
            "query id space exhausted"
        );
        for &(cache, access, weight) in queries {
            assert!(
                weight.is_finite() && weight > 0.0,
                "query weight must be finite and positive, got {weight}"
            );
            let qm = flatten_query(cache, access);
            self.push_query(&qm);
            self.finish_admit(weight);
        }
        self.debug_assert_index_matches_rebuild();
        first
    }

    /// Retracts a live query: its inverted-index entries are removed
    /// (binary search per touched candidate — delta pricing never has to
    /// skip dead entries) and its metadata is tombstoned, so its packed
    /// arm data becomes unreachable (reclaimed by [`Self::compact`]).
    /// The slot itself keeps other query ids stable; a tombstone
    /// contributes exactly 0.0 to every total, which keeps the sum tree
    /// bit-identical to a model that never held the query.
    pub fn evict_query(&mut self, qid: usize) {
        assert!(
            self.live.get(qid).copied().unwrap_or(false),
            "evicting unknown or already-evicted query {qid}"
        );
        let qm = self.qmeta[qid];
        for i in qm.touched_start..qm.touched_end {
            let c = self.touched[i as usize];
            let list = &mut self.affected[c as usize];
            let pos = list
                .binary_search(&(qid as u32))
                .unwrap_or_else(|_| panic!("inverted index lost query {qid} under candidate {c}"));
            list.remove(pos);
        }
        self.qmeta[qid] = QueryMeta {
            plan_start: 0,
            plan_end: 0,
            touched_start: 0,
            touched_end: 0,
            bloom: 0,
            arm_count: 0,
        };
        self.weights[qid] = 0.0;
        self.live[qid] = false;
        self.live_count -= 1;
        self.debug_assert_index_matches_rebuild();
    }

    /// Changes a live query's workload weight (finite, > 0). O(1): weights
    /// scale prices at evaluation time, so no stored cost goes stale.
    pub fn reweight_query(&mut self, qid: usize, weight: f64) {
        assert!(
            self.live.get(qid).copied().unwrap_or(false),
            "reweighting unknown or evicted query {qid}"
        );
        assert!(
            weight.is_finite() && weight > 0.0,
            "query weight must be finite and positive, got {weight}"
        );
        self.weights[qid] = weight;
    }

    /// Drops every tombstone slot, renumbering live queries in ascending
    /// id order and repacking the SoA arrays over the survivors (this is
    /// also what reclaims evicted queries' arm data). Returns the
    /// old→new id mapping (`u32::MAX` for evicted slots) so callers
    /// holding query ids can remap. Weights are preserved. The compacted
    /// model is exactly what [`Self::build`] over the surviving queries
    /// (then reweighted) would produce.
    pub fn compact(&mut self) -> Vec<u32> {
        let mut remap = vec![u32::MAX; self.qmeta.len()];
        let mut out = Self::empty(self.pool_size);
        for (qid, slot) in remap.iter_mut().enumerate() {
            if !self.live[qid] {
                continue;
            }
            *slot = out.qmeta.len() as u32;
            out.copy_query_from(self, qid);
            out.finish_admit(self.weights[qid]);
        }
        *self = out;
        self.debug_assert_index_matches_rebuild();
        remap
    }

    /// Re-appends one of `src`'s live queries onto this model's packed
    /// arrays, rebasing every extent. The appended bytes are identical to
    /// what [`Self::push_query`] would produce for the same query, so
    /// compaction stays bit-identical to a fresh build.
    fn copy_query_from(&mut self, src: &Self, qid: usize) {
        let qm = src.qmeta[qid];
        let plan_start = self.plans.len() as u32;
        for plan in &src.plans[qm.plan_start as usize..qm.plan_end as usize] {
            let slot_start = self.slots.len() as u32;
            for slot in &src.slots[plan.slot_start as usize..plan.slot_end as usize] {
                let s_start = self.arm_costs.len() as u32;
                self.arm_costs
                    .extend_from_slice(&src.arm_costs[slot.s_start as usize..slot.s_end as usize]);
                self.arm_cands
                    .extend_from_slice(&src.arm_cands[slot.s_start as usize..slot.s_end as usize]);
                let s_end = self.arm_costs.len() as u32;
                self.arm_costs
                    .extend_from_slice(&src.arm_costs[slot.p_start as usize..slot.p_end as usize]);
                self.arm_cands
                    .extend_from_slice(&src.arm_cands[slot.p_start as usize..slot.p_end as usize]);
                self.slots.push(SlotMeta {
                    s_start,
                    s_end,
                    p_start: s_end,
                    p_end: self.arm_costs.len() as u32,
                    ..*slot
                });
            }
            self.plans.push(PlanMeta {
                internal: plan.internal,
                slot_start,
                slot_end: self.slots.len() as u32,
            });
        }
        let touched_start = self.touched.len() as u32;
        self.touched
            .extend_from_slice(&src.touched[qm.touched_start as usize..qm.touched_end as usize]);
        self.qmeta.push(QueryMeta {
            plan_start,
            plan_end: self.plans.len() as u32,
            touched_start,
            touched_end: self.touched.len() as u32,
            bloom: qm.bloom,
            arm_count: qm.arm_count,
        });
    }

    /// Recomputes the footprint lists, blooms, and inverted index from
    /// the packed arm arrays and compares — the mutation-path analogue of
    /// the deltas' full-reprice `debug_assert`. Compiled away in release
    /// builds; sampled (every k-th mutation) via `PINUM_ASSERT_SAMPLE` so
    /// long streams keep a bounded debug cost.
    fn debug_assert_index_matches_rebuild(&self) {
        #[cfg(debug_assertions)]
        {
            if !crate::sampling::should_assert() {
                return;
            }
            let mut expect: Vec<Vec<u32>> = vec![Vec::new(); self.pool_size];
            for (qid, qm) in self.qmeta.iter().enumerate() {
                if !self.live[qid] {
                    debug_assert!(
                        qm.plan_start == qm.plan_end && qm.arm_count == 0,
                        "tombstone {qid} retains plans"
                    );
                    debug_assert!(
                        qm.touched_start == qm.touched_end && qm.bloom == 0,
                        "tombstone {qid} retains a candidate footprint"
                    );
                    continue;
                }
                let mut cands: Vec<u32> = Vec::new();
                for plan in &self.plans[qm.plan_start as usize..qm.plan_end as usize] {
                    for slot in &self.slots[plan.slot_start as usize..plan.slot_end as usize] {
                        cands.extend_from_slice(
                            &self.arm_cands[slot.s_start as usize..slot.s_end as usize],
                        );
                        cands.extend_from_slice(
                            &self.arm_cands[slot.p_start as usize..slot.p_end as usize],
                        );
                    }
                }
                cands.sort_unstable();
                cands.dedup();
                let stored = &self.touched[qm.touched_start as usize..qm.touched_end as usize];
                debug_assert!(
                    stored == cands.as_slice(),
                    "stored candidate footprint diverged for query {qid}"
                );
                let bloom = cands.iter().fold(0u64, |b, &c| b | 1u64 << (c & 63));
                debug_assert_eq!(bloom, qm.bloom, "bloom prefilter diverged for query {qid}");
                for c in cands {
                    expect[c as usize].push(qid as u32);
                }
            }
            debug_assert!(
                self.affected == expect,
                "incrementally maintained inverted index diverged from a from-scratch rebuild"
            );
            debug_assert_eq!(self.live_count, self.live.iter().filter(|l| **l).count());
        }
    }

    /// Exports the packed state as flat parallel vectors — the
    /// serialization surface for session persistence. The parts contain
    /// every owned field except the inverted index and the live count,
    /// which are derived data rebuilt by [`Self::from_parts`]; the
    /// round-trip `from_parts(to_parts())` is `==` to the original model.
    pub fn to_parts(&self) -> WorkloadModelParts {
        WorkloadModelParts {
            pool_size: self.pool_size as u64,
            arm_costs: self.arm_costs.clone(),
            arm_cands: self.arm_cands.clone(),
            slot_coef: self.slots.iter().map(|s| s.coef).collect(),
            slot_pcoef: self.slots.iter().map(|s| s.pcoef).collect(),
            slot_s_always: self.slots.iter().map(|s| s.s_always).collect(),
            slot_p_always: self.slots.iter().map(|s| s.p_always).collect(),
            slot_s_start: self.slots.iter().map(|s| s.s_start).collect(),
            slot_s_end: self.slots.iter().map(|s| s.s_end).collect(),
            slot_p_start: self.slots.iter().map(|s| s.p_start).collect(),
            slot_p_end: self.slots.iter().map(|s| s.p_end).collect(),
            slot_required: self.slots.iter().map(|s| s.required).collect(),
            plan_internal: self.plans.iter().map(|p| p.internal).collect(),
            plan_slot_start: self.plans.iter().map(|p| p.slot_start).collect(),
            plan_slot_end: self.plans.iter().map(|p| p.slot_end).collect(),
            query_plan_start: self.qmeta.iter().map(|q| q.plan_start).collect(),
            query_plan_end: self.qmeta.iter().map(|q| q.plan_end).collect(),
            query_touched_start: self.qmeta.iter().map(|q| q.touched_start).collect(),
            query_touched_end: self.qmeta.iter().map(|q| q.touched_end).collect(),
            query_bloom: self.qmeta.iter().map(|q| q.bloom).collect(),
            query_arm_count: self.qmeta.iter().map(|q| q.arm_count).collect(),
            touched: self.touched.clone(),
            weights: self.weights.clone(),
            live: self.live.clone(),
        }
    }

    /// Rebuilds a model from exported parts, validating every structural
    /// invariant the mutation paths maintain (extent bounds, per-query
    /// footprints, blooms, arm counts, tombstone emptiness, weight
    /// positivity) and recomputing the derived data (`affected`,
    /// `live_count`) from scratch — the restore-side mirror of
    /// `debug_assert_index_matches_rebuild`, but unconditional
    /// and returning a typed error instead of panicking, since parts
    /// arrive from disk.
    pub fn from_parts(parts: WorkloadModelParts) -> Result<Self, &'static str> {
        let WorkloadModelParts {
            pool_size,
            arm_costs,
            arm_cands,
            slot_coef,
            slot_pcoef,
            slot_s_always,
            slot_p_always,
            slot_s_start,
            slot_s_end,
            slot_p_start,
            slot_p_end,
            slot_required,
            plan_internal,
            plan_slot_start,
            plan_slot_end,
            query_plan_start,
            query_plan_end,
            query_touched_start,
            query_touched_end,
            query_bloom,
            query_arm_count,
            touched,
            weights,
            live,
        } = parts;
        let pool_size = usize::try_from(pool_size).map_err(|_| "pool size overflows usize")?;
        if arm_costs.len() != arm_cands.len() {
            return Err("arm cost/candidate arrays differ in length");
        }
        if arm_costs.iter().any(|c| !c.is_finite()) {
            return Err("non-finite arm cost");
        }
        if arm_cands.iter().any(|&c| c as usize >= pool_size) {
            return Err("arm candidate outside the pool");
        }
        let n_slots = slot_coef.len();
        if [
            slot_pcoef.len(),
            slot_s_always.len(),
            slot_p_always.len(),
            slot_s_start.len(),
            slot_s_end.len(),
            slot_p_start.len(),
            slot_p_end.len(),
            slot_required.len(),
        ]
        .iter()
        .any(|&l| l != n_slots)
        {
            return Err("slot arrays differ in length");
        }
        let slots: Vec<SlotMeta> = (0..n_slots)
            .map(|i| SlotMeta {
                coef: slot_coef[i],
                pcoef: slot_pcoef[i],
                s_always: slot_s_always[i],
                p_always: slot_p_always[i],
                s_start: slot_s_start[i],
                s_end: slot_s_end[i],
                p_start: slot_p_start[i],
                p_end: slot_p_end[i],
                required: slot_required[i],
            })
            .collect();
        let n_arms = arm_costs.len() as u32;
        for s in &slots {
            if s.s_start > s.s_end || s.s_end > n_arms || s.p_start > s.p_end || s.p_end > n_arms {
                return Err("slot arm extent out of bounds");
            }
        }
        let n_plans = plan_internal.len();
        if plan_slot_start.len() != n_plans || plan_slot_end.len() != n_plans {
            return Err("plan arrays differ in length");
        }
        let plans: Vec<PlanMeta> = (0..n_plans)
            .map(|i| PlanMeta {
                internal: plan_internal[i],
                slot_start: plan_slot_start[i],
                slot_end: plan_slot_end[i],
            })
            .collect();
        for p in &plans {
            if p.slot_start > p.slot_end || p.slot_end as usize > n_slots {
                return Err("plan slot extent out of bounds");
            }
        }
        let n_queries = query_plan_start.len();
        if [
            query_plan_end.len(),
            query_touched_start.len(),
            query_touched_end.len(),
            query_bloom.len(),
            query_arm_count.len(),
            weights.len(),
            live.len(),
        ]
        .iter()
        .any(|&l| l != n_queries)
        {
            return Err("query arrays differ in length");
        }
        let qmeta: Vec<QueryMeta> = (0..n_queries)
            .map(|i| QueryMeta {
                plan_start: query_plan_start[i],
                plan_end: query_plan_end[i],
                touched_start: query_touched_start[i],
                touched_end: query_touched_end[i],
                bloom: query_bloom[i],
                arm_count: query_arm_count[i],
            })
            .collect();
        if touched.iter().any(|&c| c as usize >= pool_size) {
            return Err("touched candidate outside the pool");
        }
        let mut affected: Vec<Vec<u32>> = vec![Vec::new(); pool_size];
        let mut live_count = 0usize;
        for (qid, qm) in qmeta.iter().enumerate() {
            if qm.plan_start > qm.plan_end
                || qm.plan_end as usize > n_plans
                || qm.touched_start > qm.touched_end
                || qm.touched_end as usize > touched.len()
            {
                return Err("query extent out of bounds");
            }
            if !live[qid] {
                if qm.plan_start != qm.plan_end
                    || qm.touched_start != qm.touched_end
                    || qm.bloom != 0
                    || qm.arm_count != 0
                {
                    return Err("tombstone query retains plan or footprint data");
                }
                if weights[qid] != 0.0 {
                    return Err("tombstone query retains a weight");
                }
                continue;
            }
            if !(weights[qid].is_finite() && weights[qid] > 0.0) {
                return Err("live query weight not finite and positive");
            }
            // Recompute the footprint, bloom, and arm count from the arm
            // extents — a checksum can vouch for bytes, not invariants.
            let mut cands: Vec<u32> = Vec::new();
            let mut arm_count = 0u32;
            for plan in &plans[qm.plan_start as usize..qm.plan_end as usize] {
                for slot in &slots[plan.slot_start as usize..plan.slot_end as usize] {
                    cands.extend_from_slice(&arm_cands[slot.s_start as usize..slot.s_end as usize]);
                    cands.extend_from_slice(&arm_cands[slot.p_start as usize..slot.p_end as usize]);
                    arm_count += (slot.s_end - slot.s_start) + (slot.p_end - slot.p_start);
                    arm_count += slot.s_always.is_finite() as u32;
                    arm_count += slot.p_always.is_finite() as u32;
                }
            }
            cands.sort_unstable();
            cands.dedup();
            let stored = &touched[qm.touched_start as usize..qm.touched_end as usize];
            if stored != cands.as_slice() {
                return Err("stored candidate footprint diverges from the arm data");
            }
            let bloom = cands.iter().fold(0u64, |b, &c| b | 1u64 << (c & 63));
            if bloom != qm.bloom {
                return Err("stored bloom prefilter diverges from the footprint");
            }
            if arm_count != qm.arm_count {
                return Err("stored arm count diverges from the arm extents");
            }
            for c in cands {
                affected[c as usize].push(qid as u32);
            }
            live_count += 1;
        }
        Ok(Self {
            arm_costs,
            arm_cands,
            slots,
            plans,
            qmeta,
            touched,
            weights,
            live,
            live_count,
            affected,
            pool_size,
        })
    }

    /// Total query *slots*, including tombstones — the length every
    /// [`PricedWorkload::per_query`] vector must have.
    pub fn query_count(&self) -> usize {
        self.qmeta.len()
    }

    /// Live (non-evicted) queries currently priced into totals.
    pub fn live_query_count(&self) -> usize {
        self.live_count
    }

    /// Whether `qid` is a live query slot.
    pub fn is_live(&self, qid: usize) -> bool {
        self.live.get(qid).copied().unwrap_or(false)
    }

    /// The query's current workload weight (0.0 for tombstones).
    pub fn weight(&self, qid: usize) -> f64 {
        self.weights[qid]
    }

    /// Number of flattened access arms (standalone + probe, including
    /// always-available arms) in one query's model.
    /// [`Self::admit_batch`]'s work per query is proportional to this — a
    /// measurable witness that admission is O(the query), not
    /// O(the workload).
    pub fn query_arm_count(&self, qid: usize) -> usize {
        self.qmeta[qid].arm_count as usize
    }

    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Query ids whose price can change when `candidate` is added
    /// (ascending).
    pub fn affected(&self, candidate: usize) -> &[u32] {
        &self.affected[candidate]
    }

    /// Whether `candidate` appears in `qid`'s access arms — i.e. whether
    /// it can change the query's price at all. One AND against the
    /// per-query bloom word; only a bloom hit (≤ 1/64 false-positive rate
    /// per distinct residue) pays a binary search in the footprint list.
    /// Tombstones touch nothing.
    pub fn query_touches(&self, qid: usize, candidate: usize) -> bool {
        let qm = &self.qmeta[qid];
        if qm.bloom & (1u64 << (candidate as u64 & 63)) == 0 {
            return false;
        }
        self.touched[qm.touched_start as usize..qm.touched_end as usize]
            .binary_search(&(candidate as u32))
            .is_ok()
    }

    /// Prices one query under `selection`, with `extra` overlaid as a
    /// virtual member of the selection (no clone). `f64::INFINITY` when no
    /// cached plan is applicable (e.g. an empty cache) — matching the
    /// advisor's treatment of `CacheCostModel::estimate == None`.
    pub fn price_query(&self, query: usize, selection: &Selection, extra: Option<usize>) -> f64 {
        let mut view = SelView::new(self.pool_size, selection);
        if let Some(cand) = extra {
            view.set(cand, true);
        }
        self.price_query_in(query, view.words())
    }

    /// Min over the query's plans against a baked selection view. Every
    /// slot contribution is non-negative, so a plan whose running cost
    /// reaches the best seen so far can never win: the scan hands each
    /// plan the current best as a bound and the plan bails out the moment
    /// it crosses it. Only non-winning work is skipped — the minimum's
    /// value (and bits) is exactly the unbounded scan's.
    fn price_query_in(&self, query: usize, words: &[u64]) -> f64 {
        let qm = &self.qmeta[query];
        let mut best = f64::INFINITY;
        for plan in &self.plans[qm.plan_start as usize..qm.plan_end as usize] {
            if plan.internal >= best {
                continue;
            }
            let cost = self.price_plan_in(plan, words, best);
            if cost < best {
                best = cost;
            }
        }
        best
    }

    /// Prices one packed plan; `+∞` when inapplicable under the view or
    /// once the running cost reaches `bound` (slot terms only ever add,
    /// so such a plan cannot beat the bound's owner). Mirrors
    /// `CacheCostModel::estimate_filtered` term for term (same slot
    /// order, same addition order, same tie-breaking).
    fn price_plan_in(&self, plan: &PlanMeta, words: &[u64], bound: f64) -> f64 {
        let mut cost = plan.internal;
        for slot in &self.slots[plan.slot_start as usize..plan.slot_end as usize] {
            if cost >= bound {
                return f64::INFINITY;
            }
            if slot.coef != 0.0 || slot.required {
                let access = min_arm(
                    &self.arm_costs[slot.s_start as usize..slot.s_end as usize],
                    &self.arm_cands[slot.s_start as usize..slot.s_end as usize],
                    words,
                    slot.s_always,
                );
                if access == f64::INFINITY {
                    // No standalone arm is live: a priced slot has no
                    // access cost and a required order is uncovered —
                    // either way the plan is inapplicable.
                    return f64::INFINITY;
                }
                cost += slot.coef * access;
            }
            if slot.pcoef != 0.0 {
                let probe = min_arm(
                    &self.arm_costs[slot.p_start as usize..slot.p_end as usize],
                    &self.arm_cands[slot.p_start as usize..slot.p_end as usize],
                    words,
                    slot.p_always,
                );
                if probe == f64::INFINITY {
                    return f64::INFINITY;
                }
                cost += slot.pcoef * probe;
            }
        }
        cost
    }

    /// One query's *weighted* contribution to a workload total: 0.0 for
    /// tombstones, `weight × price` otherwise. Weight 1.0 multiplication
    /// is exact in IEEE 754, so an unweighted model prices bit-identically
    /// to the unweighted engine.
    fn contribution_in(&self, query: usize, words: &[u64]) -> f64 {
        if !self.live[query] {
            return 0.0;
        }
        self.weights[query] * self.price_query_in(query, words)
    }

    /// Prices the entire workload under `selection`, query by query, and
    /// assembles the sum tree in query order. Entries are weighted
    /// contributions (tombstones contribute exactly 0.0).
    pub fn price_full(&self, selection: &Selection) -> PricedWorkload {
        PricedWorkload::from_costs(self.per_query_costs(selection))
    }

    fn per_query_costs(&self, selection: &Selection) -> Vec<f64> {
        let view = SelView::new(self.pool_size, selection);
        let words = view.words();
        (0..self.qmeta.len())
            .map(|q| self.contribution_in(q, words))
            .collect()
    }

    /// The workload total if `added` joined `selection` — the add-only
    /// shorthand of [`Self::price_probe_into`], with a scratch buffer of
    /// its own. `state` must be the [`PricedWorkload`] of `selection`.
    pub fn price_delta(&self, state: &PricedWorkload, selection: &Selection, added: usize) -> f64 {
        let mut scratch = Vec::new();
        self.price_probe_into(state, selection, Probe::Add { cand: added }, &mut scratch)
            .total
    }

    /// The exact delta of one probe: the workload total of the probed
    /// selection, re-pricing only the queries the probe's candidates can
    /// affect. `state` must be the [`PricedWorkload`] of `selection`, and
    /// a probe adds only non-members and drops only members. On return
    /// `changed` holds the `(query, cost)` pairs that actually moved
    /// (ascending by query — re-priced queries whose cost is bit-identical
    /// to `state`'s are filtered out, which is exact), ready for
    /// [`PricedWorkload::apply_changed`]. The total descends the sum tree
    /// with `changed` overlaid, so it is bit-identical to `price_full` of
    /// the probed selection (debug-asserted, sampled).
    pub fn price_probe_into(
        &self,
        state: &PricedWorkload,
        selection: &Selection,
        probe: Probe,
        changed: &mut Vec<(u32, f64)>,
    ) -> ProbeDelta {
        let mut view = SelView::new(self.pool_size, selection);
        self.price_probe_in(state, selection, probe, None, &mut view, changed)
    }

    /// Prices a batch of independent probes against one `(selection,
    /// state)` snapshot; each result lands at its probe's own index. The
    /// batch runs [`Self::price_probe_into`]'s body once per probe over one
    /// shared selection view and changed-list buffer, so an unmasked
    /// result is the single-probe result, bit for bit.
    ///
    /// `qmask` (sorted ascending query ids) restricts re-pricing to the
    /// masked subset of each probe's affected list — the scoped-pricing
    /// path. Masked totals overlay only the masked changed queries and
    /// are therefore comparable *ranks*, not exact workload totals;
    /// callers must re-derive accepted moves through
    /// [`Self::price_probe_into`].
    pub fn price_delta_batch(
        &self,
        state: &PricedWorkload,
        selection: &Selection,
        probes: &[Probe],
        qmask: Option<&[u32]>,
    ) -> Vec<ProbeDelta> {
        if probes.is_empty() {
            return Vec::new();
        }
        let mut view = SelView::new(self.pool_size, selection);
        let mut changed = Vec::new();
        probes
            .iter()
            .map(|&probe| {
                self.price_probe_in(state, selection, probe, qmask, &mut view, &mut changed)
            })
            .collect()
    }

    /// The delta kernel behind both entry points: move `view` (a snapshot
    /// of `selection`) to the probe's selection, re-price the probe's
    /// affected queries — optionally clipped to `qmask` — in ascending
    /// order, move `view` back, and overlay the moved costs on the sum
    /// tree.
    fn price_probe_in(
        &self,
        state: &PricedWorkload,
        selection: &Selection,
        probe: Probe,
        qmask: Option<&[u32]>,
        view: &mut SelView,
        changed: &mut Vec<(u32, f64)>,
    ) -> ProbeDelta {
        debug_assert_eq!(state.per_query.len(), self.qmeta.len(), "stale state");
        debug_assert!(
            match probe {
                Probe::Add { cand } => !selection.contains(cand),
                Probe::Drop { cand } => selection.contains(cand),
                Probe::Swap { add, drop } => !selection.contains(add) && selection.contains(drop),
            },
            "{probe:?} adds a member or drops a non-member"
        );
        changed.clear();
        view.toggle(probe, true);
        let mut repriced = 0usize;
        {
            let words = view.words();
            let mut mask_i = 0usize;
            let mut visit = |q: u32| {
                debug_assert!(self.live[q as usize], "inverted index holds a tombstone");
                if let Some(mask) = qmask {
                    // Both the affected list and the mask are sorted
                    // ascending, so one forward cursor intersects them.
                    while mask_i < mask.len() && mask[mask_i] < q {
                        mask_i += 1;
                    }
                    if mask_i >= mask.len() || mask[mask_i] != q {
                        return;
                    }
                }
                repriced += 1;
                let cost = self.contribution_in(q as usize, words);
                if cost.to_bits() != state.per_query[q as usize].to_bits() {
                    changed.push((q, cost));
                }
            };
            match probe {
                Probe::Add { cand } | Probe::Drop { cand } => {
                    for &q in &self.affected[cand] {
                        visit(q);
                    }
                }
                Probe::Swap { add, drop } => {
                    // Merge the two sorted affected lists (ascending,
                    // deduplicated): a query is re-priced once even when
                    // both candidates mention it.
                    let (a, d) = (&self.affected[add], &self.affected[drop]);
                    let (mut i, mut j) = (0, 0);
                    while i < a.len() || j < d.len() {
                        let q = match (a.get(i), d.get(j)) {
                            (Some(&x), Some(&y)) if x == y => {
                                i += 1;
                                j += 1;
                                x
                            }
                            (Some(&x), Some(&y)) if x < y => {
                                i += 1;
                                x
                            }
                            (Some(_) | None, Some(&y)) => {
                                j += 1;
                                y
                            }
                            (Some(&x), None) => {
                                i += 1;
                                x
                            }
                            (None, None) => unreachable!(),
                        };
                        visit(q);
                    }
                }
            }
        }
        view.toggle(probe, false);
        let total = state.overlaid_total(changed);
        #[cfg(debug_assertions)]
        if crate::sampling::should_assert() {
            // Unmasked, the changed list is the per-query diff against the
            // probed selection's full pricing; masked, it is the exact
            // delta's list restricted to the mask.
            let mut expect = Vec::new();
            match qmask {
                None => {
                    let full = self.price_full(&probed_selection(selection, probe));
                    debug_assert_eq!(
                        total.to_bits(),
                        full.total().to_bits(),
                        "delta diverged from price_full ({probe:?})"
                    );
                    expect.extend(
                        (0..full.per_query.len() as u32)
                            .map(|q| (q, full.per_query[q as usize]))
                            .filter(|&(q, c)| c.to_bits() != state.per_query[q as usize].to_bits()),
                    );
                }
                Some(mask) => {
                    let mut view = SelView::new(self.pool_size, selection);
                    self.price_probe_in(state, selection, probe, None, &mut view, &mut expect);
                    expect.retain(|(q, _)| mask.binary_search(q).is_ok());
                }
            }
            let bits = |v: &[(u32, f64)]| -> Vec<(u32, u64)> {
                v.iter().map(|&(q, c)| (q, c.to_bits())).collect()
            };
            debug_assert_eq!(
                bits(changed),
                bits(&expect),
                "changed list diverged ({probe:?})"
            );
        }
        ProbeDelta { total, repriced }
    }
}

/// One selection move: the unit of delta pricing, priced by
/// [`WorkloadModel::price_probe_into`] and [`WorkloadModel::price_delta_batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Price `selection ∪ {cand}` — the greedy frontier probe.
    Add { cand: usize },
    /// Price `selection ∖ {cand}` — the drop-one neighborhood probe.
    Drop { cand: usize },
    /// Price `(selection ∖ {drop}) ∪ {add}` — one swap move.
    Swap { add: usize, drop: usize },
}

/// The selection `probe` moves `selection` to — what its delta must
/// price to, bit for bit.
#[cfg(any(debug_assertions, test))]
fn probed_selection(selection: &Selection, probe: Probe) -> Selection {
    match probe {
        Probe::Add { cand } => selection.with(cand),
        Probe::Drop { cand } => selection.without(cand),
        Probe::Swap { add, drop } => selection.without(drop).with(add),
    }
}

/// One probe's priced outcome.
#[derive(Debug, Clone, Copy)]
pub struct ProbeDelta {
    /// The probed selection's workload total — bit-identical to
    /// `price_full` when priced unmasked; under a query mask it overlays
    /// only masked changed queries and is a comparable rank, not an exact
    /// total.
    pub total: f64,
    /// Queries actually re-priced: the probe's affected list (for a swap,
    /// the union of both), clipped to the query mask when one was given.
    pub repriced: usize,
}

/// Appends the distinct candidates in `cands` (one query's packed arm
/// candidates — always-arms are already split out) to `out`, sorted
/// ascending. Small footprints (the overwhelmingly common case) dedup by
/// insertion into the sorted tail of `out` with **no** intermediate
/// allocation; large ones fall back to sort+dedup on a scratch copy.
fn collect_touched(cands: &[u32], out: &mut Vec<u32>) {
    const SMALL: usize = 32;
    let start = out.len();
    if cands.len() <= SMALL {
        for &c in cands {
            match out[start..].binary_search(&c) {
                Ok(_) => {}
                Err(pos) => out.insert(start + pos, c),
            }
        }
    } else {
        let mut tmp = cands.to_vec();
        tmp.sort_unstable();
        tmp.dedup();
        out.extend_from_slice(&tmp);
    }
}

/// Constructor-level validation that a flattened access path stays inside
/// the candidate pool it was collected against — a mis-sized `pool_size`
/// fails loudly here instead of silently mispricing (or panicking with an
/// opaque index-out-of-bounds deep in delta pricing).
pub(crate) fn validate_candidate(candidate: u32, pool_size: usize) {
    assert!(
        (candidate as usize) < pool_size,
        "access path references candidate {candidate} but the pool holds only {pool_size} \
         candidates — the model was built/admitted against a mis-sized pool"
    );
}

/// Arms after the first always-available arm can never win (the walk stops
/// there at the latest); later duplicates of a candidate are dominated by
/// their first (cheapest) occurrence. Arm lists are tiny (a handful of
/// access paths per slot), so dedup is a linear scan over the kept prefix
/// — no hashing.
pub(crate) fn prune_arms(arms: &mut Vec<AccessArm>) {
    let mut keep = 0;
    'arms: for i in 0..arms.len() {
        let arm = arms[i];
        if arm.candidate != ALWAYS {
            for prev in &arms[..keep] {
                if prev.candidate == arm.candidate {
                    continue 'arms;
                }
            }
        }
        arms[keep] = arm;
        keep += 1;
        if arm.candidate == ALWAYS {
            break;
        }
    }
    arms.truncate(keep);
}

/// Flattens every `(cache, access)` pair, in input order.
pub(crate) fn flatten_models<'a, I>(models: I) -> Vec<QueryModel>
where
    I: IntoIterator<Item = (&'a PlanCache, &'a AccessCostCatalog)>,
{
    models
        .into_iter()
        .map(|(c, a)| flatten_query(c, a))
        .collect()
}

pub(crate) fn flatten_query(cache: &PlanCache, access: &AccessCostCatalog) -> QueryModel {
    let params = access.params();
    let mut plans = Vec::with_capacity(cache.len());
    'plans: for plan in cache.plans() {
        let mut slots = Vec::new();
        for rel in 0..cache.n_rels as RelIdx {
            let required = cache.orders.column_of(plan.ioc, rel);
            let coef = plan.coefs[rel as usize];
            let pcoef = plan.probe_coefs[rel as usize];
            if coef == 0.0 && pcoef == 0.0 && required.is_none() {
                continue; // nothing to price, nothing to check
            }
            // A probe slot without a required order can never apply (§V-D:
            // parameterized inner lookups need an index order); drop the
            // plan outright instead of re-discovering that on every call.
            if pcoef != 0.0 && required.is_none() {
                continue 'plans;
            }
            let mut standalone: Vec<AccessArm> = access
                .entries(rel)
                .iter()
                .filter(|e| match required {
                    None => true,
                    Some(o) => e.order == Some(o),
                })
                .map(|e| AccessArm {
                    cost: e.cost,
                    candidate: e.candidate.map_or(ALWAYS, |c| c as u32),
                })
                .collect();
            prune_arms(&mut standalone);
            if standalone.is_empty() {
                if required.is_some() {
                    // No candidate ever covers this order: the plan is
                    // inapplicable under every selection.
                    continue 'plans;
                }
                unreachable!("sequential scan is always available");
            }
            let mut probes: Vec<AccessArm> = Vec::new();
            if pcoef != 0.0 {
                let order = required.expect("checked above");
                probes = access
                    .entries(rel)
                    .iter()
                    .filter(|e| e.order == Some(order))
                    .filter_map(|e| e.probe.map(|p| (e.candidate, p)))
                    .map(|(candidate, mut spec)| {
                        // The loop count is fixed by the plan, so the probe
                        // can be priced once, here, instead of on every
                        // estimate (exactly `AccessCostCatalog::best_probe`
                        // at `loops = pcoef`).
                        spec.loop_count = pcoef.max(1.0);
                        AccessArm {
                            cost: cost_index_scan(params, &spec).total,
                            candidate: candidate.map_or(ALWAYS, |c| c as u32),
                        }
                    })
                    .collect();
                probes.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap());
                prune_arms(&mut probes);
                if probes.is_empty() {
                    continue 'plans; // no probe-able path will ever exist
                }
            }
            slots.push(Slot {
                coef,
                pcoef,
                required: required.is_some(),
                standalone,
                probes,
            });
        }
        plans.push(FlatPlan {
            internal: plan.internal,
            slots,
        });
    }
    QueryModel { plans }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_costs::collect_pinum;
    use crate::builder::{build_cache_pinum, BuilderOptions};
    use crate::candidates::CandidatePool;
    use crate::costing::CacheCostModel;
    use pinum_catalog::{Catalog, Column, ColumnType, Index, Table};
    use pinum_optimizer::Optimizer;
    use pinum_query::{Query, QueryBuilder};

    fn setup() -> (Catalog, Vec<Query>, CandidatePool) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "f",
            300_000,
            vec![
                Column::new("fk", ColumnType::Int8).with_ndv(3_000),
                Column::new("v", ColumnType::Int4).with_ndv(1_000),
                Column::new("s", ColumnType::Int4).with_ndv(100),
            ],
        ));
        cat.add_table(Table::new(
            "d",
            3_000,
            vec![
                Column::new("k", ColumnType::Int8).with_ndv(3_000),
                Column::new("w", ColumnType::Int4).with_ndv(50),
            ],
        ));
        let q1 = QueryBuilder::new("q1", &cat)
            .table("f")
            .table("d")
            .join(("f", "fk"), ("d", "k"))
            .filter_range(("f", "v"), 0.0, 10.0)
            .select(("f", "s"))
            .order_by(("d", "w"))
            .build();
        let q2 = QueryBuilder::new("q2", &cat)
            .table("f")
            .filter_range(("f", "v"), 0.0, 10.0)
            .select(("f", "s"))
            .order_by(("f", "s"))
            .build();
        let f = cat.table(cat.table_id("f").unwrap()).clone();
        let d = cat.table(cat.table_id("d").unwrap()).clone();
        let pool = CandidatePool::from_indexes(vec![
            Index::hypothetical(&f, vec![0], false),
            Index::hypothetical(&f, vec![1, 0, 2], false),
            Index::hypothetical(&f, vec![2], false),
            Index::hypothetical(&d, vec![0], false),
            Index::hypothetical(&d, vec![1], false),
        ]);
        (cat, vec![q1, q2], pool)
    }

    fn build_models(
        cat: &Catalog,
        queries: &[Query],
        pool: &CandidatePool,
    ) -> Vec<(PlanCache, AccessCostCatalog)> {
        let opt = Optimizer::new(cat);
        queries
            .iter()
            .map(|q| {
                let built = build_cache_pinum(&opt, q, &BuilderOptions::default());
                let (access, _) = collect_pinum(&opt, q, pool);
                (built.cache, access)
            })
            .collect()
    }

    fn model_of(models: &[(PlanCache, AccessCostCatalog)], pool: &CandidatePool) -> WorkloadModel {
        WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)))
    }

    /// The exact single-probe delta total.
    fn probe_total(
        wm: &WorkloadModel,
        state: &PricedWorkload,
        selection: &Selection,
        probe: Probe,
    ) -> f64 {
        wm.price_probe_into(state, selection, probe, &mut Vec::new())
            .total
    }

    #[test]
    fn matches_cache_cost_model_on_every_subset() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        // Exhaustive over all 32 selections of the 5-candidate pool.
        for mask in 0u32..(1 << pool.len()) {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sel = Selection::from_ids(pool.len(), &ids);
            for (q, (cache, access)) in models.iter().enumerate() {
                let reference = CacheCostModel::new(cache, access)
                    .estimate(&sel)
                    .map(|e| e.cost)
                    .unwrap_or(f64::INFINITY);
                let flat = wm.price_query(q, &sel, None);
                assert_eq!(
                    flat, reference,
                    "query {q} selection {ids:?}: flat {flat} vs reference {reference}"
                );
            }
        }
    }

    #[test]
    fn delta_equals_full_for_every_candidate() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        for mask in 0u32..(1 << pool.len()) {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sel = Selection::from_ids(pool.len(), &ids);
            let state = wm.price_full(&sel);
            for cand in 0..pool.len() {
                if sel.contains(cand) {
                    continue;
                }
                let delta = wm.price_delta(&state, &sel, cand);
                let full = wm.price_full(&sel.with(cand));
                assert_eq!(delta, full.total(), "selection {ids:?} + candidate {cand}");
            }
        }
    }

    #[test]
    fn parts_roundtrip_is_identity_even_with_tombstones() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut wm = model_of(&models, &pool);
        wm.reweight_query(1, 2.5);
        let back = WorkloadModel::from_parts(wm.to_parts()).expect("roundtrip");
        assert_eq!(back, wm, "parts roundtrip changed the model");
        // Tombstones must roundtrip too (empty extents, zero weight).
        wm.evict_query(0);
        let back = WorkloadModel::from_parts(wm.to_parts()).expect("tombstone roundtrip");
        assert_eq!(back, wm);
        assert_eq!(back.live_query_count(), 1);
        let sel = Selection::from_ids(pool.len(), &[0, 3]);
        assert_eq!(
            back.price_full(&sel).total().to_bits(),
            wm.price_full(&sel).total().to_bits()
        );
    }

    #[test]
    fn hostile_parts_are_rejected_not_panicked() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        let good = wm.to_parts();

        let mut p = good.clone();
        p.slot_s_end[0] = u32::MAX; // extent past the arm arrays
        assert!(WorkloadModel::from_parts(p).is_err());

        let mut p = good.clone();
        p.arm_cands[0] = pool.len() as u32; // candidate outside the pool
        assert!(WorkloadModel::from_parts(p).is_err());

        let mut p = good.clone();
        p.query_bloom[0] ^= 1; // bloom no longer matches the footprint
        assert!(WorkloadModel::from_parts(p).is_err());

        let mut p = good.clone();
        p.weights[0] = -1.0; // live query with a non-positive weight
        assert!(WorkloadModel::from_parts(p).is_err());

        let mut p = good.clone();
        p.weights.pop(); // query arrays out of sync
        assert!(WorkloadModel::from_parts(p).is_err());
    }

    #[test]
    fn affected_index_is_sound_and_minimal_enough() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        // Soundness: a query NOT in affected(c) never changes price when c
        // is added, under any base selection.
        for cand in 0..pool.len() {
            let affected = wm.affected(cand);
            for mask in 0u32..(1 << pool.len()) {
                let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
                let sel = Selection::from_ids(pool.len(), &ids);
                for q in 0..wm.query_count() {
                    if affected.contains(&(q as u32)) {
                        continue;
                    }
                    assert_eq!(
                        wm.price_query(q, &sel, Some(cand)),
                        wm.price_query(q, &sel, None),
                        "candidate {cand} changed unaffected query {q}"
                    );
                }
            }
        }
        // q2 references only table f, so d-only candidates must not list it.
        let d_cand = 3; // Index::hypothetical(&d, vec![0]) in setup()
        assert!(
            !wm.affected(d_cand).contains(&1),
            "single-table query q2 affected by a d index"
        );
    }

    #[test]
    fn bloom_prefilter_agrees_with_inverted_index() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut wm = model_of(&models, &pool);
        for cand in 0..pool.len() {
            for q in 0..wm.query_count() {
                assert_eq!(
                    wm.query_touches(q, cand),
                    wm.affected(cand).contains(&(q as u32)),
                    "query_touches({q}, {cand}) disagrees with the inverted index"
                );
            }
        }
        wm.evict_query(1);
        for cand in 0..pool.len() {
            assert!(
                !wm.query_touches(1, cand),
                "tombstone touches candidate {cand}"
            );
        }
    }

    #[test]
    fn price_full_state_is_consistent() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        let sel = Selection::from_ids(pool.len(), &[0, 3]);
        let state = wm.price_full(&sel);
        assert_eq!(state.per_query().len(), 2);
        // The canonical total is the pairwise tree shape, not a left fold.
        assert_eq!(
            state.total().to_bits(),
            pairwise_total(state.per_query()).to_bits()
        );
        for (q, &c) in state.per_query().iter().enumerate() {
            assert_eq!(c, wm.price_query(q, &sel, None));
            assert!(c.is_finite());
        }
    }

    #[test]
    fn sum_tree_splices_match_rebuilds() {
        // Exercise the tree across sizes that straddle capacity doublings.
        let costs: Vec<f64> = (0..13).map(|i| (i as f64) * 1.25 + 0.1).collect();
        let mut pushed = PricedWorkload::from_costs(Vec::new());
        for (i, &c) in costs.iter().enumerate() {
            pushed.extend_query_costs(&[c]);
            let rebuilt = PricedWorkload::from_costs(costs[..=i].to_vec());
            assert_eq!(pushed.total().to_bits(), rebuilt.total().to_bits());
            assert_eq!(
                pushed.total().to_bits(),
                pairwise_total(&costs[..=i]).to_bits()
            );
        }
        // Point updates, overlaid reads, and splices all agree.
        let changed = [(2u32, 7.5f64), (9, 0.0), (12, 3.25)];
        let overlaid = pushed.overlaid_total(&changed);
        pushed.apply_changed(&changed);
        assert_eq!(overlaid.to_bits(), pushed.total().to_bits());
        let mut expect = costs.clone();
        for &(q, c) in &changed {
            expect[q as usize] = c;
        }
        let rebuilt = PricedWorkload::from_costs(expect);
        assert_eq!(pushed.total().to_bits(), rebuilt.total().to_bits());
        assert_eq!(pushed, rebuilt);
        // set_query_cost alone follows the same contract.
        pushed.set_query_cost(0, 99.0);
        assert!(pushed.total() > rebuilt.total());
    }

    #[test]
    fn removal_delta_equals_full_for_every_member() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        for mask in 0u32..(1 << pool.len()) {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sel = Selection::from_ids(pool.len(), &ids);
            let state = wm.price_full(&sel);
            for &cand in &ids {
                let delta = probe_total(&wm, &state, &sel, Probe::Drop { cand });
                let full = wm.price_full(&sel.without(cand));
                assert_eq!(delta, full.total(), "selection {ids:?} - candidate {cand}");
            }
        }
    }

    #[test]
    fn swap_delta_equals_full_for_every_pair() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        for mask in 0u32..(1 << pool.len()) {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sel = Selection::from_ids(pool.len(), &ids);
            let state = wm.price_full(&sel);
            for &drop in &ids {
                for add in 0..pool.len() {
                    if sel.contains(add) {
                        continue;
                    }
                    let delta = probe_total(&wm, &state, &sel, Probe::Swap { add, drop });
                    let full = wm.price_full(&sel.without(drop).with(add));
                    assert_eq!(delta, full.total(), "selection {ids:?} +{add} -{drop}");
                }
            }
        }
    }

    #[test]
    fn add_then_remove_roundtrips_to_base_cost() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        let base = Selection::from_ids(pool.len(), &[1]);
        let base_state = wm.price_full(&base);
        for cand in 0..pool.len() {
            if base.contains(cand) {
                continue;
            }
            let extended = base.with(cand);
            let ext_state = wm.price_full(&extended);
            let back = probe_total(&wm, &ext_state, &extended, Probe::Drop { cand });
            assert_eq!(
                back,
                base_state.total(),
                "remove({cand}) did not round-trip"
            );
        }
    }

    /// Every selection of the 5-candidate pool (the fixtures are tiny
    /// enough to enumerate).
    fn all_selections(pool: &CandidatePool) -> impl Iterator<Item = Selection> + '_ {
        (0u32..(1 << pool.len())).map(|mask| {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            Selection::from_ids(pool.len(), &ids)
        })
    }

    #[test]
    fn incremental_admission_reproduces_batch_build() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let batch = model_of(&models, &pool);
        let mut streamed = WorkloadModel::build(pool.len(), std::iter::empty());
        for (i, (c, a)) in models.iter().enumerate() {
            let qid = streamed.admit_batch(&[(c, a, 1.0)]);
            assert_eq!(qid, i);
        }
        assert_eq!(streamed, batch, "admit-by-admit diverged from batch build");
    }

    #[test]
    fn admit_then_evict_is_bit_identical_to_never_admitted() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let base = model_of(&models, &pool);
        let mut mutated = model_of(&models, &pool);
        let qid = mutated.admit_batch(&[(&models[1].0, &models[1].1, 1.0)]);
        assert_eq!(mutated.live_query_count(), 3);
        mutated.evict_query(qid);
        assert_eq!(mutated.live_query_count(), base.live_query_count());
        for sel in all_selections(&pool) {
            let b = base.price_full(&sel);
            let m = mutated.price_full(&sel);
            assert!(
                b.total() == m.total() || (b.total().is_infinite() && m.total().is_infinite()),
                "totals diverged: {} vs {}",
                b.total(),
                m.total()
            );
            // Live prefix identical; the tombstone contributes exactly 0.
            assert_eq!(&m.per_query()[..b.per_query().len()], b.per_query());
            assert_eq!(m.per_query()[qid], 0.0);
        }
    }

    #[test]
    fn eviction_matches_fresh_build_over_survivors() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut mutated = model_of(&models, &pool);
        mutated.evict_query(0);
        let survivor = WorkloadModel::build(pool.len(), models[1..].iter().map(|(c, a)| (c, a)));
        for sel in all_selections(&pool) {
            let m = mutated.price_full(&sel);
            let s = survivor.price_full(&sel);
            assert!(
                m.total() == s.total() || (m.total().is_infinite() && s.total().is_infinite()),
                "evicted model diverged from fresh build: {} vs {}",
                m.total(),
                s.total()
            );
        }
    }

    #[test]
    fn compact_equals_fresh_build_over_survivors() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut mutated = model_of(&models, &pool);
        mutated.evict_query(0);
        let remap = mutated.compact();
        assert_eq!(remap, vec![u32::MAX, 0]);
        let survivor = WorkloadModel::build(pool.len(), models[1..].iter().map(|(c, a)| (c, a)));
        assert_eq!(mutated, survivor, "compact diverged from a fresh build");
    }

    #[test]
    fn reweight_scales_contributions_exactly() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut wm = model_of(&models, &pool);
        let sel = Selection::from_ids(pool.len(), &[0, 3]);
        let p0 = wm.price_query(0, &sel, None);
        let p1 = wm.price_query(1, &sel, None);
        wm.reweight_query(0, 2.5);
        assert_eq!(wm.weight(0), 2.5);
        let state = wm.price_full(&sel);
        assert_eq!(state.per_query()[0], 2.5 * p0);
        assert_eq!(state.per_query()[1], p1);
        assert_eq!(state.total(), 2.5 * p0 + p1);
    }

    #[test]
    fn deltas_stay_exact_after_mutations_and_reweights() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut wm = model_of(&models, &pool);
        let extra = wm.admit_batch(&[(&models[0].0, &models[0].1, 1.0)]);
        wm.evict_query(0);
        wm.reweight_query(extra, 3.0);
        wm.reweight_query(1, 0.25);
        for sel in all_selections(&pool) {
            let state = wm.price_full(&sel);
            for cand in 0..pool.len() {
                if sel.contains(cand) {
                    let delta = probe_total(&wm, &state, &sel, Probe::Drop { cand });
                    let full = wm.price_full(&sel.without(cand));
                    assert_eq!(delta, full.total());
                } else {
                    let delta = wm.price_delta(&state, &sel, cand);
                    let full = wm.price_full(&sel.with(cand));
                    assert_eq!(delta, full.total());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mis-sized pool")]
    fn mis_sized_pool_fails_loudly() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        // The access catalogs were collected against 5 candidates; claiming
        // a pool of 1 must fail at construction, not misprice silently.
        let _ = WorkloadModel::build(1, models.iter().map(|(c, a)| (c, a)));
    }

    #[test]
    #[should_panic(expected = "already-evicted")]
    fn double_evict_panics() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut wm = model_of(&models, &pool);
        wm.evict_query(1);
        wm.evict_query(1);
    }

    #[test]
    fn admit_work_is_bounded_by_query_arms() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut wm = WorkloadModel::build(pool.len(), std::iter::empty());
        for (c, a) in &models {
            let qid = wm.admit_batch(&[(c, a, 1.0)]);
            assert!(
                wm.query_arm_count(qid) > 0,
                "query {qid} flattened to nothing"
            );
        }
        assert_eq!(wm.query_count(), models.len());
    }

    #[test]
    fn empty_cache_prices_to_infinity() {
        let (cat, queries, pool) = setup();
        let mut models = build_models(&cat, &queries, &pool);
        // Replace q2's cache with an empty one.
        let orders = models[1].0.orders.clone();
        models[1].0 = PlanCache::new("q2", 1, orders);
        let wm = model_of(&models, &pool);
        let sel = Selection::empty(pool.len());
        let state = wm.price_full(&sel);
        assert!(state.per_query()[0].is_finite());
        assert!(state.per_query()[1].is_infinite());
        assert!(state.total().is_infinite());
    }

    /// Every add/drop/swap probe the fixture admits, as one batch.
    fn all_probes(selection: &Selection, pool_size: usize) -> Vec<Probe> {
        let mut probes = Vec::new();
        for c in 0..pool_size {
            if selection.contains(c) {
                probes.push(Probe::Drop { cand: c });
            } else {
                probes.push(Probe::Add { cand: c });
            }
        }
        for d in 0..pool_size {
            if !selection.contains(d) {
                continue;
            }
            for a in 0..pool_size {
                if !selection.contains(a) {
                    probes.push(Probe::Swap { add: a, drop: d });
                }
            }
        }
        probes
    }

    #[test]
    fn mixed_batch_prices_every_probe_to_its_full_repricing() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        let bits = |v: &[(u32, f64)]| -> Vec<(u32, u64)> {
            v.iter().map(|&(q, c)| (q, c.to_bits())).collect()
        };
        for selection in all_selections(&pool) {
            let state = wm.price_full(&selection);
            // Every probe twice back-to-back, then the whole list
            // reversed: a probe whose bits were not restored would leave
            // the shared view dirty for its successor.
            let once = all_probes(&selection, pool.len());
            let mut probes: Vec<Probe> = once.iter().flat_map(|&p| [p, p]).collect();
            probes.extend(once.iter().rev());
            let got = wm.price_delta_batch(&state, &selection, &probes, None);
            assert_eq!(got.len(), probes.len());
            for (&probe, d) in probes.iter().zip(&got) {
                let full = wm.price_full(&probed_selection(&selection, probe));
                let moved: Vec<(u32, f64)> = (0..wm.query_count() as u32)
                    .map(|q| (q, full.per_query()[q as usize]))
                    .filter(|&(q, c)| c.to_bits() != state.per_query()[q as usize].to_bits())
                    .collect();
                let mut changed = Vec::new();
                let single = wm.price_probe_into(&state, &selection, probe, &mut changed);
                assert_eq!(d.total.to_bits(), full.total().to_bits(), "{probe:?}");
                assert_eq!(single.total.to_bits(), d.total.to_bits(), "{probe:?}");
                assert_eq!(single.repriced, d.repriced, "{probe:?}");
                assert_eq!(bits(&changed), bits(&moved), "{probe:?}");
            }
        }
    }

    #[test]
    fn batch_repriced_counts_match_the_affected_index() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        let selection = Selection::from_ids(pool.len(), &[0]);
        let state = wm.price_full(&selection);
        let probes: Vec<Probe> = (1..pool.len()).map(|cand| Probe::Add { cand }).collect();
        let got = wm.price_delta_batch(&state, &selection, &probes, None);
        for (p, d) in probes.iter().zip(&got) {
            let Probe::Add { cand } = *p else {
                unreachable!()
            };
            assert_eq!(d.repriced, wm.affected(cand).len());
        }
    }

    #[test]
    fn masked_batch_is_the_mask_restriction_of_the_serial_delta() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        let selection = Selection::from_ids(pool.len(), &[1]);
        let state = wm.price_full(&selection);
        let probes = all_probes(&selection, pool.len());
        let nq = wm.query_count() as u32;
        // Sweep every subset mask of the (tiny) query set, including the
        // empty and full masks.
        let masks: Vec<Vec<u32>> = (0..(1u32 << nq))
            .map(|bits| (0..nq).filter(|q| bits & (1 << q) != 0).collect())
            .collect();
        let mut scratch = Vec::new();
        for mask in &masks {
            let got = wm.price_delta_batch(&state, &selection, &probes, Some(mask));
            for (&p, d) in probes.iter().zip(&got) {
                let exact = wm.price_probe_into(&state, &selection, p, &mut scratch);
                let restricted: Vec<(u32, f64)> = scratch
                    .iter()
                    .filter(|(q, _)| mask.binary_search(q).is_ok())
                    .copied()
                    .collect();
                assert_eq!(
                    d.total.to_bits(),
                    state.overlaid_total(&restricted).to_bits(),
                    "mask {mask:?} probe {p:?}"
                );
                assert!(d.repriced <= exact.repriced, "mask {mask:?} probe {p:?}");
                // The full mask is exact: identical to the unmasked delta.
                if mask.len() == nq as usize {
                    assert_eq!(d.total.to_bits(), exact.total.to_bits());
                    assert_eq!(d.repriced, exact.repriced);
                }
            }
        }
    }
}
