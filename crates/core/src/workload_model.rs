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
//! * `qmeta: Vec<QueryMeta>` — a plan extent per query.
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
//! ## Prefilter — the arm index
//!
//! The one stored footprint structure is the **arm index**
//! `candidate → its live arms` (position, slot and query, 12 bytes an
//! arm, ascending by position), maintained under streaming mutation.
//! Queries pack their arms in id order, so a candidate's arms fall into
//! one run per query, in ascending query order. Adding or dropping
//! candidate `c` can only re-price queries whose arms mention `c`, so a
//! delta walks `c`'s runs and nothing else, and each run tells it which
//! slots of that query `c` can move. The distinct queries of the runs
//! are `affected(c)`. The invariant: a query not in `affected(c)` prices
//! identically with and without `c` in the selection, under **every**
//! base selection.
//!
//! A query's own footprint — its sorted distinct candidates and its
//! flattened arm count — is not stored: `footprint` derives it from the
//! query's arm extents in O(its arms + pool words), which is what
//! admission, eviction, compaction and restore already pay per query.
//!
//! ## Pool-aware pruning
//!
//! The paper's cache is exact under *any* configuration, but this model
//! only ever prices selections from the pool its catalogs were collected
//! against, and most cached plans can never be a query's minimum under
//! any of them. Flattening drops those plans. Per plan it sums two costs
//! in `plan_cost`'s exact operation order
//! (`internal`, then `+= coef·access` and `+= pcoef·probe` per slot):
//!
//! * **lo** takes every slot at its first arm (the cheapest of the pool);
//! * **hi** takes every slot at its always-available arm, and is `+∞`
//!   when a slot has none.
//!
//! A plan whose `lo` exceeds the query's least `hi` is dropped. The
//! argument is monotonicity: IEEE rounding makes `a + c·x` non-decreasing
//! in `a` and in `x` for `c ≥ 0`, and under any selection a slot's term
//! lies between its first arm and its always arm. So under every
//! selection each plan costs at least its `lo`, and the query's minimum
//! is at most every plan's `hi`. A dropped plan costs strictly more than
//! that minimum and never attains it, so every price keeps its bits. The
//! least `hi` is the query's price under the empty selection, and the
//! plan attaining it has `lo ≤ hi` and survives, so no query is emptied.
//!
//! The rule lives only in `flatten_query`, so [`WorkloadModel::build`],
//! [`WorkloadModel::admit_batch`] and [`WorkloadModel::compact`] (which
//! copies what admission packed) all hold pruned queries.
//! [`CacheCostModel`](crate::CacheCostModel) stays unpruned as the
//! oracle. Parts restored by [`WorkloadModel::from_parts`] may still hold
//! dead plans; they price the same. Pruning also narrows `affected(c)`:
//! it lists the queries whose price `c` *can* change — those whose
//! surviving plans have an arm gated by `c` — not every query whose
//! cache mentions `c`.
//!
//! ## Totals — fixed-shape pairwise sum tree
//!
//! A [`PricedWorkload`] no longer stores a scalar total next to the
//! per-query costs: it maintains a **fixed-shape pairwise partial-sum
//! tree** over them (power-of-two capacity, zero-padded). The workload
//! total is the root; re-totaling after a delta that re-prices `k`
//! queries is a read-only bottom-up pass costing O(k·log n)
//! ([`PricedWorkload::overlaid_total`]: each changed leaf climbs,
//! reading untouched siblings off the tree, until it meets the next
//! changed leaf's path) instead of an O(n) re-sum, and splicing an
//! accepted move updates O(k·log n) tree nodes
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
//! ## Incremental pricing — one delta kernel over a slot floor
//!
//! [`WorkloadModel::price_full`] prices every query by scanning it.
//! Every other pricing question is a [`Probe`] — a virtual add, drop or
//! swap — and one private body answers it: toggle the probe's bits on the
//! view, re-price only the affected queries, restore the bits, and
//! re-total through the sum tree. It does not re-scan an affected query.
//! It reads the query off a [`SlotFloor`]: what the search already knows
//! about the selection it stands on, namely each slot's standalone and
//! probe minimum (its cheapest live arm, or its always arm), each
//! minimum's **winner** and **runner-up** (the arm attaining it, and the
//! arm a scan without the winner keeps), and each plan's cost.
//!
//! * **Lazy fill.** A floor starts empty. A query's floor is filled by one
//!   two-minimum scan the first time a probe touches it, so a search, and
//!   a warm scoped re-advise in particular, pays only for the queries it
//!   probes.
//! * **The rules.** Through the arm index a probe visits only its
//!   candidates' arms in the query. An **add** of `c` lowers each of
//!   `c`'s slots to `min(floor, c's arm)`. A **drop** of `c` moves a slot
//!   only when `c`'s arm is that slot's winner, and then onto the
//!   runner-up's cost, read in O(1): a run names each candidate once (the
//!   flattening's `prune_arms` keeps a candidate's first arm, and
//!   [`WorkloadModel::from_parts`] refuses a run that does not) and a
//!   probe drops one candidate, so the runner-up is still live. Any other
//!   dropped arm was not the minimum. A **swap** drops, then adds; each
//!   rule leaves the exact scan result, so they compose. Only plans
//!   holding a slot whose minimum moved are re-summed, by the same
//!   `plan_cost` the scan uses; the others keep their floor cost. The
//!   overrides are undone before the next query.
//! * **Exactness.** The masked scan's result is the first minimal arm in
//!   scan order (the always arm first, then the run), so `min` against the
//!   floor has its bits whenever the two values differ or share bits. The
//!   one other case is `+0.0` against `−0.0`, and there the add rule asks
//!   the scan. The plan sums run in the scan's order, and the query's
//!   minimum over plan costs keeps the scan's strict `<` in plan order. So
//!   every total, changed list and `repriced` count is the scanning
//!   kernel's, bit for bit. This is debug-asserted (sampled) against
//!   `price_full` per probe, and against a fresh fill, winners and
//!   runner-ups included, whenever a floor moves.
//! * **Moving the floor.** Every entry taking a floor first moves it onto
//!   the caller's selection ([`WorkloadModel::move_floor`]). Each filled
//!   query a changed candidate affects is *settled* across that
//!   candidate's arms, kept this time, with each slot's winner and
//!   runner-up kept exact in O(1) an arm: an added arm is placed by
//!   (cost, position in the run), the always arm winning its ties, and
//!   only a dropped winner or runner-up rescans its slot (no top can name
//!   the arm that follows it). Positions are relative to the slot's run,
//!   so they survive [`WorkloadModel::compact`]. A search owns one floor
//!   for its whole run ([`WorkloadModel::price_batch_on`]), and commits a
//!   move with [`WorkloadModel::commit_probe_on`], which settles each
//!   affected query as it prices it and leaves the floor on the new
//!   selection.
//!
//! In a batch, a run of swaps sharing one drop prices the drop's affected
//! queries once under `selection − drop` and splices those that moved
//! into a copy of the priced state: the **drop-spliced tree**, one per
//! run. Each swap re-prices only its added candidate's queries on top
//! and overlays them on that tree, so it neither re-merges nor re-adds
//! the drop's queries. This is bit-identical to the single-probe body: a
//! query a candidate does not touch prices the same with or without it,
//! and a tree node is a pure function of its leaves. Queries whose
//! re-priced cost is bit-identical to the stored cost are dropped from the
//! `changed` list (exact, since the comparison is on bits). The splice a
//! search strategy applies afterwards is therefore proportional to what
//! actually moved.
//!
//! ## Streaming — the workload as a mutable object
//!
//! [`WorkloadModel::admit_batch`] flattens a run of `(plan cache, access
//! catalog)` pairs and appends them to the packed arrays in O(those
//! queries' arms). [`WorkloadModel::evict_query`] retracts a query eagerly from
//! the arm index and tombstones its metadata (its packed arm data
//! becomes unreachable and is reclaimed by [`WorkloadModel::compact`],
//! which rebuilds the arrays over the survivors — bit-identical to a
//! fresh build). [`WorkloadModel::reweight_query`] is O(1). Every
//! mutation debug-asserts (sampled) that the maintained arm index matches
//! a from-scratch recomputation. The index is not persisted:
//! [`WorkloadModel::from_parts`] recomputes it. A floor
//! carried across mutations needs only [`SlotFloor::renumber`] after a
//! compaction.
//!
//! The arithmetic deliberately mirrors `CacheCostModel::estimate` term
//! for term (same entry order, same addition order, same tie-breaking),
//! so the incremental advisor reproduces the naive advisor's pick
//! sequence exactly; `CacheCostModel::estimate` is the equivalence oracle
//! the kernel is tested against.

use crate::access_costs::AccessCostCatalog;
use crate::cache::PlanCache;
use crate::candidates::Selection;
use pinum_cost::scan::index_probe_total;
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
    /// The plan's cost with every slot at its cheapest arm: a lower bound
    /// under every selection (read only by `flatten_query`'s pruning).
    pub(crate) lo: f64,
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
    ///
    /// One bottom-up pass: each changed leaf climbs towards the root,
    /// adding its sibling at every level, until it is a left child whose
    /// right sibling holds the next changed leaf. There it waits, one
    /// value per level, for that leaf's climb to reach it. The last leaf
    /// reaches the root.
    pub fn overlaid_total(&self, changed: &[(u32, f64)]) -> f64 {
        let cap = self.tree.len() / 2;
        // Waiting left children by level (0 = leaves), and which levels
        // hold one; ids are `u32`, so a tree has at most 33 levels.
        let mut waiting = [0.0f64; u32::BITS as usize + 1];
        let mut held = 0u64;
        let mut total = self.tree[1];
        for (k, &(q, cost)) in changed.iter().enumerate() {
            let next = changed.get(k + 1).map(|&(n, _)| cap + n as usize);
            let (mut node, mut sum) = (cap + q as usize, cost);
            debug_assert!(
                next.is_none_or(|n| n > node),
                "changed list not ascending at {q}"
            );
            let mut level = 0;
            while node > 1 {
                if node % 2 == 1 {
                    // A value waiting at this level is the left sibling's:
                    // its subtree's last changed leaf stopped there.
                    let left = if held & (1 << level) != 0 {
                        held &= !(1 << level);
                        waiting[level]
                    } else {
                        self.tree[node - 1]
                    };
                    let right = sum;
                    sum = left + right;
                } else if next.is_some_and(|n| n >> level == node + 1) {
                    waiting[level] = sum;
                    held |= 1 << level;
                    break;
                } else {
                    sum += self.tree[node + 1];
                }
                node /= 2;
                level += 1;
            }
            if node == 1 {
                total = sum;
            }
        }
        total
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

impl SlotMeta {
    /// The standalone (or probe) arm run's extent in the arm arrays and
    /// its always-arm cost.
    #[inline]
    fn run(&self, standalone: bool) -> (usize, usize, f64) {
        if standalone {
            (self.s_start as usize, self.s_end as usize, self.s_always)
        } else {
            (self.p_start as usize, self.p_end as usize, self.p_always)
        }
    }
}

/// One packed cached plan: internal cost plus a slot extent.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PlanMeta {
    internal: f64,
    slot_start: u32,
    slot_end: u32,
}

/// One packed query: a plan extent (empty for tombstones). Everything
/// else about the query is derived from its plans' arm extents.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueryMeta {
    plan_start: u32,
    plan_end: u32,
}

/// The packed model exploded into flat parallel vectors of primitives —
/// the serialization surface of [`WorkloadModel::to_parts`] /
/// [`WorkloadModel::from_parts`]. Each `slot_*` / `plan_*` / `query_*`
/// group is a struct-of-arrays view of the corresponding private meta
/// array, so a snapshot writer can stream every field as one contiguous
/// length-prefixed section with no pointer chasing. Derived data (the
/// arm index, the live count, and each query's candidate footprint and
/// arm count) is deliberately absent: `from_parts` recomputes it from
/// the arm extents, which doubles as validation.
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
/// again afterwards, so one view serves a whole batch of probes. The
/// default view is zero words wide: it matches no pool.
#[derive(Debug, Clone, Default)]
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
    /// Per-query workload weight (1.0 at build/admit time; 0.0 for
    /// tombstones). A query contributes `weight × price` to every total.
    weights: Vec<f64>,
    /// Liveness per query slot: evicted queries leave a tombstone so ids
    /// stay stable for callers holding them.
    live: Vec<bool>,
    /// Number of live (non-evicted) query slots.
    live_count: usize,
    /// Arm index: candidate id → the live arms it gates, ascending by
    /// position and so grouped by query in ascending query order (only
    /// live queries appear: eviction retracts their arms eagerly).
    arms: Vec<Vec<ArmRef>>,
    pool_size: usize,
}

/// One indexed arm: its position in the arm arrays, the slot whose
/// standalone (`pos < s_end`) or probe run holds it, and that slot's
/// query.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ArmRef {
    pos: u32,
    slot: u32,
    query: u32,
}

/// Whether two indexed arms belong to one query: splits a candidate's
/// arms into its per-query runs.
fn same_query(a: &ArmRef, b: &ArmRef) -> bool {
    a.query == b.query
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
            weights: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            arms: vec![Vec::new(); pool_size],
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
    /// pushes its [`QueryMeta`]. [`Self::finish_admit`] must follow to
    /// index and weight it.
    fn push_query(&mut self, qm: &QueryModel) {
        let plan_start = self.plans.len() as u32;
        for plan in &qm.plans {
            let slot_start = self.slots.len() as u32;
            for slot in &plan.slots {
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
        self.qmeta.push(QueryMeta {
            plan_start,
            plan_end: self.plans.len() as u32,
        });
    }

    /// Indexes and weights the most recently packed query.
    fn finish_admit(&mut self, weight: f64) {
        self.index_query(self.qmeta.len() - 1);
        self.weights.push(weight);
        self.live.push(true);
        self.live_count += 1;
    }

    /// Enters a live query into the arm index. Queries are indexed in
    /// ascending id order (the new id is the largest ever issued, and its
    /// arms sit past every indexed arm), so every insertion is an O(1)
    /// push that keeps the lists sorted.
    fn index_query(&mut self, qid: usize) {
        for slot in self.query_slots(qid) {
            let s = self.slots[slot];
            for pos in s.s_start..s.p_end {
                let c = self.arm_cands[pos as usize];
                validate_candidate(c, self.pool_size);
                let arm = ArmRef {
                    pos,
                    slot: slot as u32,
                    query: qid as u32,
                };
                self.arms[c as usize].push(arm);
            }
        }
    }

    /// A query's slots: its plans' slot extents tile one run. Empty for
    /// a tombstone.
    fn query_slots(&self, qid: usize) -> std::ops::Range<usize> {
        let qm = self.qmeta[qid];
        if qm.plan_start == qm.plan_end {
            return 0..0;
        }
        let first = self.plans[qm.plan_start as usize].slot_start;
        first as usize..self.plans[qm.plan_end as usize - 1].slot_end as usize
    }

    /// A query's footprint, derived from its arm extents: the sorted
    /// distinct candidates its gated arms mention, and its flattened arm
    /// count (standalone + probe, always-arms included). A tombstone has
    /// no plans, so it touches nothing and counts no arms. The one source
    /// of both facts — admission, eviction, compaction, restore and the
    /// index rebuild check all derive them here, in O(the query's arms +
    /// pool words): candidates are deduplicated through a pool-wide
    /// bitset, which also yields them sorted.
    fn footprint(&self, qid: usize) -> (Vec<u32>, usize) {
        let qm = self.qmeta[qid];
        let mut seen = vec![0u64; self.pool_size.div_ceil(64)];
        let mut arms = 0;
        for plan in &self.plans[qm.plan_start as usize..qm.plan_end as usize] {
            for slot in &self.slots[plan.slot_start as usize..plan.slot_end as usize] {
                let standalone = &self.arm_cands[slot.s_start as usize..slot.s_end as usize];
                let probes = &self.arm_cands[slot.p_start as usize..slot.p_end as usize];
                for &c in standalone.iter().chain(probes) {
                    validate_candidate(c, self.pool_size);
                    seen[(c / 64) as usize] |= 1 << (c % 64);
                }
                arms += standalone.len() + probes.len();
                arms += usize::from(slot.s_always.is_finite());
                arms += usize::from(slot.p_always.is_finite());
            }
        }
        let mut cands = Vec::new();
        for (w, &word) in seen.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                cands.push(w as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        (cands, arms)
    }

    /// Splices a run of `(cache, access, weight)` queries (weights finite
    /// and > 0; a weight is e.g. an observed execution frequency) in one
    /// maintenance pass. Every query is flattened and packed in O(its
    /// plans and access arms) — the rest of the workload is never touched
    /// — the arm index takes each newcomer's arms as O(1) sorted pushes
    /// (new ids are issued in ascending order, so the lists stay sorted),
    /// and the expensive index-rebuild debug assert runs
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

    /// Retracts a live query: its arm-index entries are removed (binary
    /// search by query id per footprint candidate — delta pricing never
    /// has to skip dead entries) and its metadata is tombstoned, so its
    /// packed arm data becomes unreachable (reclaimed by [`Self::compact`]).
    /// The slot itself keeps other query ids stable; a tombstone
    /// contributes exactly 0.0 to every total, which keeps the sum tree
    /// bit-identical to a model that never held the query.
    pub fn evict_query(&mut self, qid: usize) {
        assert!(
            self.live.get(qid).copied().unwrap_or(false),
            "evicting unknown or already-evicted query {qid}"
        );
        let q = qid as u32;
        for c in self.footprint(qid).0 {
            let list = &mut self.arms[c as usize];
            let lo = list.partition_point(|a| a.query < q);
            let hi = list.partition_point(|a| a.query <= q);
            assert!(lo < hi, "arm index lost query {qid} under candidate {c}");
            list.drain(lo..hi);
        }
        self.qmeta[qid] = QueryMeta {
            plan_start: 0,
            plan_end: 0,
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
        self.qmeta.push(QueryMeta {
            plan_start,
            plan_end: self.plans.len() as u32,
        });
    }

    /// Recomputes the arm index from the packed arm arrays and compares —
    /// the mutation-path analogue of the deltas' full-reprice
    /// `debug_assert`. Compiled away in release builds; sampled (every
    /// k-th mutation) via `PINUM_ASSERT_SAMPLE` so long streams keep a
    /// bounded debug cost.
    fn debug_assert_index_matches_rebuild(&self) {
        #[cfg(debug_assertions)]
        {
            if !crate::sampling::should_assert() {
                return;
            }
            let mut expect: Vec<Vec<ArmRef>> = vec![Vec::new(); self.pool_size];
            for (qid, qm) in self.qmeta.iter().enumerate() {
                if !self.live[qid] {
                    debug_assert!(
                        qm.plan_start == qm.plan_end,
                        "tombstone {qid} retains plans"
                    );
                    continue;
                }
                for slot in self.query_slots(qid) {
                    let s = self.slots[slot];
                    for pos in s.s_start..s.p_end {
                        let c = self.arm_cands[pos as usize] as usize;
                        let (slot, query) = (slot as u32, qid as u32);
                        expect[c].push(ArmRef { pos, slot, query });
                    }
                }
            }
            debug_assert!(
                self.arms == expect,
                "incrementally maintained arm index diverged from a from-scratch rebuild"
            );
            debug_assert_eq!(self.live_count, self.live.iter().filter(|l| **l).count());
        }
    }

    /// Exports the packed state as flat parallel vectors — the
    /// serialization surface for session persistence. The parts contain
    /// every owned field except the arm index and the live count, which
    /// are derived data rebuilt by [`Self::from_parts`]; the
    /// round-trip `from_parts(pool_size, to_parts())` is `==` to the original model.
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
            weights: self.weights.clone(),
            live: self.live.clone(),
        }
    }

    /// Rebuilds a model from exported parts, validating every structural
    /// invariant the mutation paths maintain (extents that tile, empty
    /// tombstones, weight positivity) and every term the bounded kernel
    /// scan relies on (arm costs finite and ≥ 0, internal costs and
    /// coefficients finite and ≥ 0, always-arm costs ≥ 0 or `+∞`), then
    /// recomputing the derived data (`arms`, `live_count`) from the arm
    /// extents — the restore-side mirror of
    /// `debug_assert_index_matches_rebuild`, but unconditional and
    /// returning a typed error instead of panicking, since parts arrive
    /// from disk. `pool_size` is the caller's candidate pool: parts built
    /// over another are refused before anything is sized from them. So is
    /// a slot arm run that names one candidate twice, which no mutation
    /// path packs (`prune_arms` keeps a candidate's first arm) and the
    /// floor kernel's drop rule relies on.
    pub fn from_parts(pool_size: usize, parts: WorkloadModelParts) -> Result<Self, &'static str> {
        if parts.pool_size != pool_size as u64 {
            return Err("model built over a different candidate pool");
        }
        let WorkloadModelParts {
            pool_size: _,
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
            weights,
            live,
        } = parts;
        // The kernel skips a plan once its running cost reaches the best
        // so far, which is exact only when no term can lower a cost.
        let non_negative_finite = |x: &f64| x.is_finite() && *x >= 0.0;
        if arm_costs.len() != arm_cands.len() {
            return Err("arm cost/candidate arrays differ in length");
        }
        if !arm_costs.iter().all(non_negative_finite) {
            return Err("arm cost not finite and non-negative");
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
        // Every mutation path appends a query's arms, slots and plans in
        // order, so the slots' standalone-then-probe runs tile the arm
        // arrays and the plans' slot runs tile the slot array: no arm or
        // slot is shared, and none is unreachable.
        let mut next_arm = 0u32;
        for s in &slots {
            let runs_forward = s.s_start <= s.s_end && s.p_start <= s.p_end;
            if s.s_start != next_arm || s.p_start != s.s_end || !runs_forward {
                return Err("slot arm extents do not tile the arm arrays");
            }
            next_arm = s.p_end;
            if !(non_negative_finite(&s.coef) && non_negative_finite(&s.pcoef)) {
                return Err("slot coefficient not finite and non-negative");
            }
            // `+∞` is the "no always-available arm" mark.
            if !(s.s_always >= 0.0 && s.p_always >= 0.0) {
                return Err("always-arm cost negative or NaN");
            }
        }
        if next_arm as usize != arm_costs.len() {
            return Err("slot arm extents do not cover the arm arrays");
        }
        let mut seen = vec![0u64; pool_size.div_ceil(64)];
        for s in &slots {
            for run in [s.s_start..s.s_end, s.p_start..s.p_end] {
                let cands = &arm_cands[run.start as usize..run.end as usize];
                for &c in cands {
                    let (w, bit) = ((c / 64) as usize, 1 << (c % 64));
                    if seen[w] & bit != 0 {
                        return Err("slot arm run names one candidate twice");
                    }
                    seen[w] |= bit;
                }
                for &c in cands {
                    seen[(c / 64) as usize] = 0;
                }
            }
        }
        let n_plans = plan_internal.len();
        if plan_slot_start.len() != n_plans || plan_slot_end.len() != n_plans {
            return Err("plan arrays differ in length");
        }
        if !plan_internal.iter().all(non_negative_finite) {
            return Err("plan internal cost not finite and non-negative");
        }
        let plans: Vec<PlanMeta> = (0..n_plans)
            .map(|i| PlanMeta {
                internal: plan_internal[i],
                slot_start: plan_slot_start[i],
                slot_end: plan_slot_end[i],
            })
            .collect();
        let mut next_slot = 0u32;
        for p in &plans {
            if p.slot_start != next_slot || p.slot_end < p.slot_start {
                return Err("plan slot extents do not tile the slot array");
            }
            next_slot = p.slot_end;
        }
        if next_slot as usize != n_slots {
            return Err("plan slot extents do not cover the slot array");
        }
        let n_queries = query_plan_start.len();
        if [query_plan_end.len(), weights.len(), live.len()]
            .iter()
            .any(|&l| l != n_queries)
        {
            return Err("query arrays differ in length");
        }
        let qmeta: Vec<QueryMeta> = (0..n_queries)
            .map(|i| QueryMeta {
                plan_start: query_plan_start[i],
                plan_end: query_plan_end[i],
            })
            .collect();
        let mut model = Self {
            arm_costs,
            arm_cands,
            slots,
            plans,
            qmeta,
            weights,
            live,
            live_count: 0,
            arms: vec![Vec::new(); pool_size],
            pool_size,
        };
        // Live queries' plan extents ascend and are disjoint; an evicted
        // query's plans stay behind, unreachable, as a gap.
        let mut next_plan = 0u32;
        for qid in 0..n_queries {
            let qm = model.qmeta[qid];
            let weight = model.weights[qid];
            if !model.live[qid] {
                if (qm.plan_start, qm.plan_end) != (0, 0) {
                    return Err("tombstone query retains plans");
                }
                if weight != 0.0 {
                    return Err("tombstone query retains a weight");
                }
                continue;
            }
            if !(weight.is_finite() && weight > 0.0) {
                return Err("live query weight not finite and positive");
            }
            if qm.plan_start < next_plan || qm.plan_end < qm.plan_start {
                return Err("live query plan extents overlap or run backwards");
            }
            if qm.plan_end as usize > n_plans {
                return Err("query extent out of bounds");
            }
            next_plan = qm.plan_end;
            // Every extent this query reaches was bounds-checked above,
            // and every arm candidate lies inside the pool.
            model.index_query(qid);
            model.live_count += 1;
        }
        Ok(model)
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
    /// always-available arms) in one query's model, derived from its arm
    /// extents. [`Self::admit_batch`]'s work per query is proportional to
    /// this — a measurable witness that admission is O(the query), not
    /// O(the workload).
    pub fn query_arm_count(&self, qid: usize) -> usize {
        self.footprint(qid).1
    }

    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Query ids whose price can change when `candidate` is added
    /// (ascending): those with an arm gated by `candidate` in a plan that
    /// survived pool-aware pruning (module docs), one per run of the
    /// candidate's indexed arms.
    pub fn affected(&self, candidate: usize) -> impl Iterator<Item = u32> + '_ {
        self.arms[candidate]
            .chunk_by(same_query)
            .map(|run| run[0].query)
    }

    /// The arm runs of `add` and `drop` (either may be absent), merged in
    /// ascending query order: each query either candidate affects, once,
    /// with its dropped and its added arms (one side empty when only the
    /// other candidate touches it).
    fn merged_runs(
        &self,
        add: Option<usize>,
        drop: Option<usize>,
    ) -> impl Iterator<Item = (u32, &[ArmRef], &[ArmRef])> {
        let runs = |c: Option<usize>| {
            let arms = c.map_or(&[][..], |c| &self.arms[c][..]);
            arms.chunk_by(same_query).peekable()
        };
        let (mut adds, mut drops) = (runs(add), runs(drop));
        std::iter::from_fn(move || {
            let q = match (adds.peek(), drops.peek()) {
                (Some(a), Some(d)) => a[0].query.min(d[0].query),
                (Some(r), None) | (None, Some(r)) => r[0].query,
                (None, None) => return None,
            };
            let added = adds.next_if(|r| r[0].query == q).unwrap_or(&[]);
            let dropped = drops.next_if(|r| r[0].query == q).unwrap_or(&[]);
            Some((q, dropped, added))
        })
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
            let cost = self.plan_cost(plan, best, |_, slot, standalone| {
                self.slot_min(slot, standalone, words)
            });
            if cost < best {
                best = cost;
            }
        }
        best
    }

    /// A slot's standalone (or probe) minimum under the view: its always
    /// arm or its cheapest live gated arm, `+∞` when neither exists.
    #[inline]
    fn slot_min(&self, slot: &SlotMeta, standalone: bool, words: &[u64]) -> f64 {
        let (start, end, always) = slot.run(standalone);
        min_arm(
            &self.arm_costs[start..end],
            &self.arm_cands[start..end],
            words,
            always,
        )
    }

    /// [`Self::slot_min`] with its two leading arms: the minimum, and the
    /// positions in the run of the arm that attains it and of the arm a
    /// scan without that one keeps ([`Top2`]). The scan's order is the
    /// always arm, then the run; its strict `<` keeps the first arm of a
    /// tie, here for both places.
    fn slot_top2(&self, slot: &SlotMeta, standalone: bool, words: &[u64]) -> (f64, Top2) {
        let (start, end, always) = slot.run(standalone);
        let (mut best, mut win) = (always, ALWAYS);
        let (mut second, mut next) = (f64::INFINITY, ALWAYS);
        for (i, pos) in (start..end).enumerate() {
            let cand = self.arm_cands[pos];
            if (words[(cand >> 6) as usize] >> (cand & 63)) & 1 == 0 {
                continue;
            }
            let cost = self.arm_costs[pos];
            if cost < best {
                (second, next) = (best, win);
                (best, win) = (cost, i as u32);
            } else if cost < second {
                (second, next) = (cost, i as u32);
            }
        }
        if win == ALWAYS {
            // The always arm cannot be dropped: it has no runner-up.
            next = ALWAYS;
        }
        (best, Top2 { win, next })
    }

    /// The cost of the arm at `at` in a slot's run, or of its always arm
    /// at [`ALWAYS`].
    #[inline]
    fn ranked_cost(&self, slot: &SlotMeta, standalone: bool, at: u32) -> f64 {
        let (start, _, always) = slot.run(standalone);
        if at == ALWAYS {
            always
        } else {
            self.arm_costs[start + at as usize]
        }
    }

    /// Prices one packed plan from its slots' minima — `min(i, slot,
    /// standalone)` is the `i`-th slot's standalone or probe minimum;
    /// `+∞` when a needed minimum is `+∞` or once the running cost
    /// reaches `bound` (slot terms only ever add, so such a plan cannot
    /// beat the bound's owner). Mirrors `CacheCostModel::estimate_filtered`
    /// term for term (same slot order, same addition order, same
    /// tie-breaking). The one summation every pricing path runs: a scan
    /// hands it the view's minima, the floor kernel its stored ones.
    #[inline]
    fn plan_cost(
        &self,
        plan: &PlanMeta,
        bound: f64,
        mut min: impl FnMut(usize, &SlotMeta, bool) -> f64,
    ) -> f64 {
        let mut cost = plan.internal;
        let slots = &self.slots[plan.slot_start as usize..plan.slot_end as usize];
        for (i, slot) in slots.iter().enumerate() {
            if cost >= bound {
                return f64::INFINITY;
            }
            if slot.coef != 0.0 || slot.required {
                let access = min(i, slot, true);
                if access == f64::INFINITY {
                    // No standalone arm is live: a priced slot has no
                    // access cost and a required order is uncovered —
                    // either way the plan is inapplicable.
                    return f64::INFINITY;
                }
                cost += slot.coef * access;
            }
            if slot.pcoef != 0.0 {
                let probe = min(i, slot, false);
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

    /// The workload total if `added` joined `selection`: one add probe
    /// through [`Self::price_batch_on`], on a floor of its own. `state`
    /// must be the [`PricedWorkload`] of `selection`.
    pub fn price_delta(&self, state: &PricedWorkload, selection: &Selection, added: usize) -> f64 {
        let probe = [Probe::Add { cand: added }];
        self.price_batch_on(state, selection, &probe, None, &mut SlotFloor::default())[0].total
    }

    /// The exact delta of one probe from `floor` (which may stand on any
    /// selection of this model, and is moved onto `selection` first),
    /// leaving the floor on the probed selection: each affected query is
    /// settled as it is priced, so a search commits a move in one pass. A
    /// caller that keeps `selection` after all moves the floor back with
    /// [`Self::move_floor`]; on a fresh floor this is the single-probe
    /// delta. `state` must be the [`PricedWorkload`] of `selection`, and a
    /// probe adds only non-members and drops only members. On return
    /// `changed` holds the `(query, cost)` pairs that actually moved
    /// (ascending by query — re-priced queries whose cost is bit-identical
    /// to `state`'s are filtered out, which is exact), ready for
    /// [`PricedWorkload::apply_changed`]. The total descends the sum tree
    /// with `changed` overlaid, so it is bit-identical to `price_full` of
    /// the probed selection (debug-asserted, sampled).
    pub fn commit_probe_on(
        &self,
        state: &PricedWorkload,
        selection: &Selection,
        probe: Probe,
        floor: &mut SlotFloor,
        changed: &mut Vec<(u32, f64)>,
    ) -> ProbeDelta {
        self.move_floor(floor, selection);
        let mut probed = floor.base.clone();
        let settle = true;
        self.price_probe_in(
            state,
            selection,
            probe,
            None,
            settle,
            floor,
            &mut probed,
            changed,
        )
    }

    /// Prices a batch of independent probes against one `(selection,
    /// state)` snapshot and one floor (moved onto `selection` first and
    /// left there); each result lands at its probe's own index, and an
    /// unmasked result is [`Self::commit_probe_on`]'s, bit for bit.
    ///
    /// A run of consecutive [`Probe::Swap`]s with the same `drop` — the
    /// drop-major neighbourhood a swap search sends — shares the drop's
    /// work: `affected(drop)` is priced once under `selection − drop` and
    /// spliced into a copy of `state`, and each swap re-prices only
    /// `affected(add)` and overlays it on that copy's tree (a query `add`
    /// does not touch prices the same with or without it). Every other
    /// probe runs the single-probe body.
    ///
    /// `qmask` (sorted ascending query ids) restricts re-pricing to the
    /// masked subset of each probe's affected list — the scoped-pricing
    /// path. Masked totals overlay only the masked changed queries and
    /// are therefore comparable *ranks*, not exact workload totals;
    /// callers must re-derive accepted moves through
    /// [`Self::commit_probe_on`].
    pub fn price_batch_on(
        &self,
        state: &PricedWorkload,
        selection: &Selection,
        probes: &[Probe],
        qmask: Option<&[u32]>,
        floor: &mut SlotFloor,
    ) -> Vec<ProbeDelta> {
        let mut out = Vec::with_capacity(probes.len());
        if probes.is_empty() {
            return out;
        }
        self.move_floor(floor, selection);
        let mut probed = floor.base.clone();
        let mut changed = Vec::new();
        let mut rest = probes;
        while let Some(&first) = rest.first() {
            let run = match first {
                Probe::Swap { drop, .. } => rest
                    .iter()
                    .take_while(|p| matches!(p, Probe::Swap { drop: d, .. } if *d == drop))
                    .count(),
                _ => 1,
            };
            if run > 1 {
                let run = &rest[..run];
                self.price_swap_run(state, selection, run, qmask, floor, &mut probed, &mut out);
            } else {
                out.push(self.price_probe_in(
                    state,
                    selection,
                    first,
                    qmask,
                    false,
                    floor,
                    &mut probed,
                    &mut changed,
                ));
            }
            rest = &rest[run..];
        }
        out
    }

    /// A run of swaps sharing one `drop`: price the drop's (masked)
    /// affected queries once under `selection − drop` and splice those
    /// that moved into a copy of `state`, the drop's priced state, which
    /// the whole run shares. Each swap then re-prices only the (masked)
    /// `affected(add)` under `selection − drop + add`, its drop-pass
    /// queries from the drop's arms as well, and overlays them on the
    /// drop's tree. A tree node is a pure function of its leaves, so that
    /// total has the bits of the single-probe delta's overlay of the
    /// merged changed list on `state`. Each swap's total and `repriced`
    /// (the union, clipped to the mask) equal [`Self::price_probe_in`]'s
    /// bit for bit, and so does the merged list, which is built only for
    /// that check (debug-asserted, sampled); its delta is pushed onto
    /// `out`.
    #[allow(clippy::too_many_arguments)]
    fn price_swap_run(
        &self,
        state: &PricedWorkload,
        selection: &Selection,
        run: &[Probe],
        qmask: Option<&[u32]>,
        floor: &mut SlotFloor,
        probed: &mut SelView,
        out: &mut Vec<ProbeDelta>,
    ) {
        debug_assert_eq!(state.per_query.len(), self.qmeta.len(), "stale state");
        let Probe::Swap { drop, .. } = run[0] else {
            unreachable!("a swap run starts with a swap")
        };
        debug_assert!(selection.contains(drop), "swap drops a non-member {drop}");
        probed.set(drop, false);
        let mut mask = MaskCursor::new(qmask);
        let mut drop_pass = Vec::new();
        let mut dropped_state = state.clone();
        for (q, dropped, _) in self.merged_runs(None, Some(drop)) {
            if mask.admits(q) {
                let cost = self.contribution_on(floor, q as usize, probed.words(), dropped, &[]);
                if cost.to_bits() != state.per_query[q as usize].to_bits() {
                    dropped_state.set_query_cost(q as usize, cost);
                }
                drop_pass.push((q, dropped));
            }
        }
        let mut changed = Vec::new();
        for &probe in run {
            let Probe::Swap { add, drop: d } = probe else {
                unreachable!("a swap run holds only swaps")
            };
            debug_assert!(
                d == drop && !selection.contains(add),
                "{probe:?} breaks the run"
            );
            changed.clear();
            probed.set(add, true);
            let words = probed.words();
            let mut repriced = drop_pass.len();
            let mut mask = MaskCursor::new(qmask);
            let mut from_drop = drop_pass.iter().peekable();
            for (q, _, added) in self.merged_runs(Some(add), None) {
                if !mask.admits(q) {
                    continue;
                }
                while from_drop.next_if(|e| e.0 < q).is_some() {}
                let dropped = match from_drop.next_if(|e| e.0 == q) {
                    Some(&(_, dropped)) => dropped,
                    None => {
                        repriced += 1;
                        &[]
                    }
                };
                let cost = self.contribution_on(floor, q as usize, words, dropped, added);
                if cost.to_bits() != dropped_state.per_query[q as usize].to_bits() {
                    changed.push((q, cost));
                }
            }
            probed.set(add, false);
            let total = dropped_state.overlaid_total(&changed);
            #[cfg(debug_assertions)]
            if crate::sampling::should_assert() {
                // The merged changed list: the swap's state diffed
                // against `state`.
                let mut swapped = dropped_state.clone();
                swapped.apply_changed(&changed);
                let merged: Vec<(u32, f64)> = (0..state.per_query.len() as u32)
                    .map(|q| (q, swapped.per_query[q as usize]))
                    .filter(|&(q, c)| c.to_bits() != state.per_query[q as usize].to_bits())
                    .collect();
                let mut expect = Vec::new();
                let mut fresh = SlotFloor::default();
                self.move_floor(&mut fresh, selection);
                let mut view = fresh.base.clone();
                let single = self.price_probe_in(
                    state,
                    selection,
                    probe,
                    qmask,
                    false,
                    &mut fresh,
                    &mut view,
                    &mut expect,
                );
                debug_assert_eq!(
                    (total.to_bits(), repriced, changed_bits(&merged)),
                    (
                        single.total.to_bits(),
                        single.repriced,
                        changed_bits(&expect)
                    ),
                    "drop-spliced swap pricing diverged from the single-probe delta ({probe:?})"
                );
            }
            out.push(ProbeDelta { total, repriced });
        }
        probed.set(drop, true);
    }

    /// The delta kernel behind every entry point: move `probed` (a copy
    /// of the floor's base view) to the probe's selection, re-price the
    /// probe's affected queries — optionally clipped to `qmask` — in
    /// ascending order from the floor, move `probed` back, and overlay
    /// the moved costs on the sum tree. With `settle` (unmasked only) each
    /// query's floor is settled onto the probed selection instead of
    /// restored, and the floor ends standing there.
    #[allow(clippy::too_many_arguments)]
    fn price_probe_in(
        &self,
        state: &PricedWorkload,
        selection: &Selection,
        probe: Probe,
        qmask: Option<&[u32]>,
        settle: bool,
        floor: &mut SlotFloor,
        probed: &mut SelView,
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
        probed.toggle(probe, true);
        let mut repriced = 0usize;
        {
            let words = probed.words();
            let (add, drop) = probe.moved();
            let mut mask = MaskCursor::new(qmask);
            // A query both candidates mention is re-priced once.
            for (q, dropped, added) in self.merged_runs(add, drop) {
                if !mask.admits(q) {
                    continue;
                }
                repriced += 1;
                let cost = if settle {
                    self.settled_contribution(floor, q as usize, words, dropped, added)
                } else {
                    self.contribution_on(floor, q as usize, words, dropped, added)
                };
                if cost.to_bits() != state.per_query[q as usize].to_bits() {
                    changed.push((q, cost));
                }
            }
        }
        debug_assert!(!settle || qmask.is_none(), "a masked probe cannot settle");
        if settle {
            floor.base = probed.clone();
        }
        probed.toggle(probe, false);
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
                    let mut fresh = SlotFloor::default();
                    self.commit_probe_on(state, selection, probe, &mut fresh, &mut expect);
                    expect.retain(|(q, _)| mask.binary_search(q).is_ok());
                }
            }
            debug_assert_eq!(
                changed_bits(changed),
                changed_bits(&expect),
                "changed list diverged ({probe:?})"
            );
        }
        ProbeDelta { total, repriced }
    }

    /// Query `q`'s weighted price under `probed` — the floor's base with
    /// the `dropped` arms' candidate cleared and the `added` arms'
    /// candidate set — read off the floor: [`Self::shift_slots`] moves the
    /// slot minima the arms can move, only plans holding a moved minimum
    /// are re-summed by [`Self::plan_cost`], and the rest keep their floor
    /// cost. The overrides are undone before returning, so the floor still
    /// stands on its base.
    fn contribution_on(
        &self,
        floor: &mut SlotFloor,
        q: usize,
        probed: &[u64],
        dropped: &[ArmRef],
        added: &[ArmRef],
    ) -> f64 {
        debug_assert!(self.live[q], "arm index holds a tombstone");
        let at = self.floor_at(floor, q);
        let plans = self.query_plans(q);
        let slot0 = plans[0].slot_start as usize;
        // Where the query's slot minima start, after its plan costs.
        let mins = at.vals + plans.len();
        self.shift_slots(floor, mins, at.tops, slot0, probed, dropped, added);
        let SlotFloor { vals, saved, .. } = floor;
        let mut best = f64::INFINITY;
        for (k, plan) in plans.iter().enumerate() {
            let first = mins + 2 * (plan.slot_start as usize - slot0);
            let last = mins + 2 * (plan.slot_end as usize - slot0);
            let cost = if !saved.iter().any(|&(at, _)| (first..last).contains(&at)) {
                vals[at.vals + k]
            } else if plan.internal >= best {
                continue;
            } else {
                self.plan_cost(plan, best, |i, _, standalone| {
                    vals[first + 2 * i + usize::from(!standalone)]
                })
            };
            if cost < best {
                best = cost;
            }
        }
        for &(at, old) in saved.iter().rev() {
            vals[at] = old;
        }
        self.weights[q] * best
    }

    /// [`Self::contribution_on`], kept: `q`'s floor is settled onto
    /// `probed` and its price read off the settled plan costs.
    fn settled_contribution(
        &self,
        floor: &mut SlotFloor,
        q: usize,
        probed: &[u64],
        dropped: &[ArmRef],
        added: &[ArmRef],
    ) -> f64 {
        debug_assert!(self.live[q], "arm index holds a tombstone");
        let at = self.floor_at(floor, q);
        self.settle(floor, q, probed, dropped, added);
        let plans = self.query_plans(q).len();
        self.weights[q] * least(&floor.vals[at.vals..at.vals + plans])
    }

    /// Moves filled query `q`'s floor onto `words` for good, across the
    /// `dropped` and `added` arms of the candidates that changed: the
    /// slot rules of [`Self::settle_slots`], then every plan holding a
    /// moved minimum re-summed (unbounded) and stored.
    fn settle(
        &self,
        floor: &mut SlotFloor,
        q: usize,
        words: &[u64],
        dropped: &[ArmRef],
        added: &[ArmRef],
    ) {
        let at = floor.at[q];
        let plans = self.query_plans(q);
        let slot0 = plans[0].slot_start as usize;
        let mins = at.vals + plans.len();
        self.settle_slots(floor, mins, at.tops, slot0, words, dropped, added);
        let SlotFloor { vals, saved, .. } = floor;
        for (k, plan) in plans.iter().enumerate() {
            let first = mins + 2 * (plan.slot_start as usize - slot0);
            let last = mins + 2 * (plan.slot_end as usize - slot0);
            if saved.iter().any(|&(at, _)| (first..last).contains(&at)) {
                vals[at.vals + k] = self.plan_cost(plan, f64::INFINITY, |i, _, standalone| {
                    vals[first + 2 * i + usize::from(!standalone)]
                });
            }
        }
        saved.clear();
    }

    /// Where arm `a` of a query whose first slot is `slot0` sits in the
    /// query's floor: the index of its minimum among the query's slot
    /// minima (standalone then probe, slot by slot), its slot, whether it
    /// is a standalone arm, and its position in its run.
    #[inline]
    fn locate(&self, a: &ArmRef, slot0: usize) -> (usize, &SlotMeta, bool, u32) {
        let slot = &self.slots[a.slot as usize];
        let standalone = a.pos < slot.s_end;
        let k = 2 * (a.slot as usize - slot0) + usize::from(!standalone);
        let pos = a.pos as usize - slot.run(standalone).0;
        (k, slot, standalone, pos as u32)
    }

    /// The probe slot rules of the floor kernel, applied in place to the
    /// slot minima starting at `mins` in the floor's values, whose
    /// [`Top2`]s start at `tops` (a query whose first slot is `slot0`);
    /// `words` is the selection being priced. A dropped arm moves its
    /// slot's minimum only when it is the winner, and then onto the
    /// runner-up's cost, in one read: a run names each candidate once and
    /// a probe drops one candidate, so the runner-up is still live. An
    /// added arm lowers its slot to `min(minimum, arm)`. Either rule
    /// leaves the exact scan result, and drops come first, so a swap
    /// composes. Each minimum that moves is pushed with its old value onto
    /// `floor.saved` (cleared first); the tops stay on the floor's base.
    #[allow(clippy::too_many_arguments)]
    fn shift_slots(
        &self,
        floor: &mut SlotFloor,
        mins: usize,
        tops: usize,
        slot0: usize,
        words: &[u64],
        dropped: &[ArmRef],
        added: &[ArmRef],
    ) {
        let SlotFloor {
            vals,
            tops: top2,
            saved,
            ..
        } = floor;
        saved.clear();
        for a in dropped {
            let (k, slot, standalone, pos) = self.locate(a, slot0);
            let top = top2[tops + k];
            if pos == top.win {
                let (cur, new) = (vals[mins + k], self.ranked_cost(slot, standalone, top.next));
                if new.to_bits() != cur.to_bits() {
                    saved.push((mins + k, cur));
                    vals[mins + k] = new;
                }
            }
        }
        for a in added {
            let (k, slot, standalone, _) = self.locate(a, slot0);
            let (cur, arm) = (vals[mins + k], self.arm_costs[a.pos as usize]);
            let new = if arm < cur {
                arm
            } else if arm > cur || arm.to_bits() == cur.to_bits() {
                cur
            } else {
                // +0.0 against −0.0: which sign the scan keeps depends on
                // arm order, so ask the scan.
                self.slot_min(slot, standalone, words)
            };
            if new.to_bits() != cur.to_bits() {
                saved.push((mins + k, cur));
                vals[mins + k] = new;
            }
        }
    }

    /// [`Self::shift_slots`]' rules, kept: each slot's [`Top2`] moves with
    /// its minimum, in O(1) an arm. An added arm is placed by (cost, run
    /// position), the always arm first: ahead of the winner it wins and
    /// the winner runs up; else ahead of the runner-up it runs up. A
    /// dropped winner or runner-up leaves a place no top can fill, so that
    /// slot alone is rescanned under `words`; any other drop moves
    /// nothing. A move settles its candidates one at a time onto its final
    /// selection, so a rescan may already hold a later candidate's change:
    /// an added arm already winning stays where it is (one already
    /// running up, or behind, is never placed ahead). Moved minima go onto
    /// `floor.saved` for the plan re-sum.
    #[allow(clippy::too_many_arguments)]
    fn settle_slots(
        &self,
        floor: &mut SlotFloor,
        mins: usize,
        tops: usize,
        slot0: usize,
        words: &[u64],
        dropped: &[ArmRef],
        added: &[ArmRef],
    ) {
        let SlotFloor {
            vals,
            tops: top2,
            saved,
            ..
        } = floor;
        saved.clear();
        let mut moved = |at: usize, new: f64| {
            if new.to_bits() != vals[at].to_bits() {
                saved.push((at, vals[at]));
                vals[at] = new;
            }
        };
        for a in dropped {
            let (k, slot, standalone, pos) = self.locate(a, slot0);
            let top = &mut top2[tops + k];
            if pos == top.win || pos == top.next {
                let new;
                (new, *top) = self.slot_top2(slot, standalone, words);
                moved(mins + k, new);
            }
        }
        for a in added {
            let (k, slot, standalone, pos) = self.locate(a, slot0);
            let top = &mut top2[tops + k];
            let arm = self.arm_costs[a.pos as usize];
            if pos == top.win {
                continue;
            }
            if ahead(
                arm,
                pos,
                self.ranked_cost(slot, standalone, top.win),
                top.win,
            ) {
                *top = Top2 {
                    win: pos,
                    next: top.win,
                };
                moved(mins + k, arm);
            } else if top.win != ALWAYS
                && ahead(
                    arm,
                    pos,
                    self.ranked_cost(slot, standalone, top.next),
                    top.next,
                )
            {
                top.next = pos;
            }
        }
    }

    /// A query's plans (none for a tombstone).
    fn query_plans(&self, q: usize) -> &[PlanMeta] {
        let qm = self.qmeta[q];
        &self.plans[qm.plan_start as usize..qm.plan_end as usize]
    }

    /// Where query `q`'s floor starts, filling it under the floor's base
    /// first if no probe has touched `q` yet.
    fn floor_at(&self, floor: &mut SlotFloor, q: usize) -> FloorAt {
        if floor.at[q] == UNFILLED {
            let at = FloorAt {
                vals: floor.vals.len(),
                tops: floor.tops.len(),
            };
            let minima = 2 * self.query_slots(q).len();
            floor
                .vals
                .resize(at.vals + self.query_plans(q).len() + minima, 0.0);
            floor.tops.resize(at.tops + minima, Top2::ALWAYS);
            let (vals, tops) = (&mut floor.vals[at.vals..], &mut floor.tops[at.tops..]);
            self.fill_floor(q, floor.base.words(), vals, tops);
            floor.at[q] = at;
        }
        floor.at[q]
    }

    /// Writes query `q`'s floor under `words`: into `out` its plans' costs
    /// (unbounded, `+∞` when inapplicable), then each slot's standalone
    /// and probe minimum, and into `tops` each minimum's [`Top2`].
    fn fill_floor(&self, q: usize, words: &[u64], out: &mut [f64], tops: &mut [Top2]) {
        let plans = self.query_plans(q);
        let slots = self.query_slots(q);
        let (costs, mins) = out.split_at_mut(plans.len());
        let minima = mins.chunks_exact_mut(2).zip(tops.chunks_exact_mut(2));
        for (slot, (m, t)) in self.slots[slots.clone()].iter().zip(minima) {
            (m[0], t[0]) = self.slot_top2(slot, true, words);
            (m[1], t[1]) = self.slot_top2(slot, false, words);
        }
        for (cost, plan) in costs.iter_mut().zip(plans) {
            let first = 2 * (plan.slot_start as usize - slots.start);
            *cost = self.plan_cost(plan, f64::INFINITY, |i, _, standalone| {
                mins[first + 2 * i + usize::from(!standalone)]
            });
        }
    }

    /// Moves `floor` onto `selection`: every filled query some changed
    /// candidate affects is settled onto the new selection across that
    /// candidate's arms (the others price the same under both), and
    /// queries admitted since the floor last ran are unfilled. A floor
    /// standing on another pool width starts over empty. Every kernel
    /// entry taking a floor does this first; a search calls it to move
    /// its floor back after refusing a move it priced with
    /// [`Self::commit_probe_on`].
    pub fn move_floor(&self, floor: &mut SlotFloor, selection: &Selection) {
        let view = SelView::new(self.pool_size, selection);
        if floor.base.nwords != view.nwords {
            *floor = SlotFloor::default();
        }
        if floor.at.len() < self.qmeta.len() {
            floor.at.resize(self.qmeta.len(), UNFILLED);
        }
        for w in 0..floor.base.nwords {
            let new = view.words()[w];
            let mut moved = floor.base.words()[w] ^ new;
            while moved != 0 {
                let bit = moved.trailing_zeros();
                moved &= moved - 1;
                let c = w * 64 + bit as usize;
                let joined = (new >> bit) & 1 != 0;
                let (add, drop) = if joined {
                    (Some(c), None)
                } else {
                    (None, Some(c))
                };
                for (q, dropped, added) in self.merged_runs(add, drop) {
                    if floor.at[q as usize] != UNFILLED {
                        self.settle(floor, q as usize, view.words(), dropped, added);
                    }
                }
            }
        }
        floor.base = view;
        #[cfg(debug_assertions)]
        if crate::sampling::should_assert() {
            self.debug_assert_floor_is_fresh(floor);
        }
    }

    /// Every filled live query's floor equals a fresh fill under the
    /// floor's base — values and each slot's winner and runner-up — the
    /// fill's two-minimum scan agrees with the plain one (the winner's
    /// cost is the scan's minimum, and a scan with the winner's candidate
    /// cleared keeps the runner-up's cost), and the least of its plan
    /// costs, weighted, is the query's `price_full` entry bit for bit.
    #[cfg(debug_assertions)]
    fn debug_assert_floor_is_fresh(&self, floor: &SlotFloor) {
        let words = floor.base.words();
        for (q, &at) in floor.at.iter().enumerate() {
            if at == UNFILLED || !self.live[q] {
                continue;
            }
            let (plans, slots) = (self.query_plans(q).len(), self.query_slots(q));
            let mut fresh = vec![0.0; plans + 2 * slots.len()];
            let mut fresh_tops = vec![Top2::ALWAYS; 2 * slots.len()];
            self.fill_floor(q, words, &mut fresh, &mut fresh_tops);
            let kept = &floor.vals[at.vals..at.vals + fresh.len()];
            debug_assert!(
                kept.iter()
                    .zip(&fresh)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "slot floor of query {q} diverged from a fresh fill"
            );
            debug_assert!(
                floor.tops[at.tops..at.tops + fresh_tops.len()] == fresh_tops[..],
                "winner/runner-up of query {q} diverged from a fresh two-minimum scan"
            );
            let mut without = words.to_vec();
            for (k, top) in fresh_tops.iter().enumerate() {
                let (slot, standalone) = (&self.slots[slots.start + k / 2], k % 2 == 0);
                let scan = self.slot_min(slot, standalone, words).to_bits();
                debug_assert!(
                    fresh[plans + k].to_bits() == scan
                        && self.ranked_cost(slot, standalone, top.win).to_bits() == scan,
                    "two-minimum scan of query {q} diverged from the plain scan"
                );
                if top.win != ALWAYS {
                    let c = self.arm_cands[slot.run(standalone).0 + top.win as usize] as usize;
                    without[c / 64] &= !(1 << (c % 64));
                    let next = self.slot_min(slot, standalone, &without);
                    without[c / 64] = words[c / 64];
                    debug_assert_eq!(
                        self.ranked_cost(slot, standalone, top.next).to_bits(),
                        next.to_bits(),
                        "runner-up of query {q} is not what a scan without its winner keeps"
                    );
                }
            }
            let best = least(&kept[..plans]);
            debug_assert_eq!(
                (self.weights[q] * best).to_bits(),
                self.contribution_in(q, words).to_bits(),
                "slot floor of query {q} diverged from price_full"
            );
        }
    }
}

/// The least plan cost, kept by the scan's strict `<` in plan order.
fn least(costs: &[f64]) -> f64 {
    (costs.iter()).fold(f64::INFINITY, |best, &c| if c < best { c } else { best })
}

/// Whether an arm costing `cost` at run position `pos` comes before the
/// arm costing `than` at `than_pos` in a slot scan's order: cheaper, or
/// as cheap and earlier. The always arm ([`ALWAYS`]) is scanned first, so
/// it wins its ties.
fn ahead(cost: f64, pos: u32, than: f64, than_pos: u32) -> bool {
    cost < than || (cost == than && than_pos != ALWAYS && pos < than_pos)
}

/// A slot minimum's two leading arms under a floor's base, as positions
/// in the slot's standalone or probe run — relative to the run, so they
/// survive [`WorkloadModel::compact`], which copies each run in order.
/// The **winner** attains the minimum; the **runner-up** is the arm a
/// scan without the winner keeps. [`ALWAYS`] marks the always arm (`+∞`
/// on a slot without one); a slot the always arm wins, which no drop can
/// move, has no runner-up and marks it `ALWAYS` too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Top2 {
    win: u32,
    next: u32,
}

impl Top2 {
    /// The always arm wins.
    const ALWAYS: Self = Self {
        win: ALWAYS,
        next: ALWAYS,
    };
}

/// Where one filled query's floor starts: its plan costs (then its slot
/// minima) in a [`SlotFloor`]'s values, and its minima's [`Top2`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FloorAt {
    vals: usize,
    tops: usize,
}

/// Offset mark of a query whose floor is not filled yet.
const UNFILLED: FloorAt = FloorAt {
    vals: usize::MAX,
    tops: usize::MAX,
};

/// What a search knows about the selection it stands on: for each query
/// a probe has touched, each plan's cost, each slot's standalone and
/// probe minimum, and each minimum's winner and runner-up (`Top2`)
/// under the floor's base selection (module docs, "Incremental
/// pricing"). It starts empty and fills one query at a time, the first
/// time a probe touches the query, so its size and its cost follow the
/// queries a search actually probes. Every kernel call first moves it
/// onto the caller's selection, settling only the filled queries the
/// changed candidates affect.
///
/// A floor belongs to one model. Admission and eviction need nothing;
/// after [`WorkloadModel::compact`] hand it the remap
/// ([`Self::renumber`]).
#[derive(Debug, Clone, Default)]
pub struct SlotFloor {
    /// The selection the floor stands on (zero words until first use).
    base: SelView,
    /// Per query id: where its floor starts, or `UNFILLED`.
    at: Vec<FloorAt>,
    /// Per filled query: its plans' costs, then its slots' (standalone,
    /// probe) minima, in the model's plan and slot order.
    vals: Vec<f64>,
    /// Per filled query: its slot minima's tops, in the same order as
    /// its minima in `vals`.
    tops: Vec<Top2>,
    /// The values one query's probe overrides, with their floor values.
    saved: Vec<(usize, f64)>,
}

impl SlotFloor {
    /// Follows a [`WorkloadModel::compact`]: `remap` is the old→new id
    /// mapping it returned. Compaction copies each surviving query's plans
    /// and slots in order, so a filled query's floor stays valid under its
    /// new id; an evicted query's values stay behind, unreachable.
    pub fn renumber(&mut self, remap: &[u32]) {
        let live = remap.iter().filter(|&&new| new != u32::MAX).count();
        let mut at = vec![UNFILLED; live];
        for (old, &new) in remap.iter().enumerate() {
            if new != u32::MAX {
                at[new as usize] = self.at.get(old).copied().unwrap_or(UNFILLED);
            }
        }
        self.at = at;
    }
}

/// One selection move: the unit of delta pricing, priced by
/// [`WorkloadModel::price_batch_on`] and [`WorkloadModel::commit_probe_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Price `selection ∪ {cand}` — the greedy frontier probe.
    Add { cand: usize },
    /// Price `selection ∖ {cand}` — the drop-one neighborhood probe.
    Drop { cand: usize },
    /// Price `(selection ∖ {drop}) ∪ {add}` — one swap move.
    Swap { add: usize, drop: usize },
}

impl Probe {
    /// The candidate the probe adds and the one it drops.
    pub fn moved(self) -> (Option<usize>, Option<usize>) {
        match self {
            Probe::Add { cand } => (Some(cand), None),
            Probe::Drop { cand } => (None, Some(cand)),
            Probe::Swap { add, drop } => (Some(add), Some(drop)),
        }
    }
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

/// A changed list with its costs as bits, for exact comparisons.
#[cfg(debug_assertions)]
fn changed_bits(changed: &[(u32, f64)]) -> Vec<(u32, u64)> {
    changed.iter().map(|&(q, c)| (q, c.to_bits())).collect()
}

/// Intersects an ascending stream of query ids with a sorted query mask
/// in one forward pass; no mask admits every query.
struct MaskCursor<'a> {
    mask: Option<&'a [u32]>,
    at: usize,
}

impl<'a> MaskCursor<'a> {
    fn new(mask: Option<&'a [u32]>) -> Self {
        Self { mask, at: 0 }
    }

    /// Whether `q` is masked in; calls must come in ascending `q`.
    fn admits(&mut self, q: u32) -> bool {
        let Some(mask) = self.mask else { return true };
        while self.at < mask.len() && mask[self.at] < q {
            self.at += 1;
        }
        self.at < mask.len() && mask[self.at] == q
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
    /// The queries this probe's total covers: its affected list (for a
    /// swap, the union of both), clipped to the query mask when one was
    /// given. In a [`WorkloadModel::price_batch_on`] run of swaps sharing
    /// one drop, the drop's part of that union is priced once per run, not
    /// once per swap.
    pub repriced: usize,
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

/// Flattens one `(cache, access)` pair and drops every plan that cannot
/// attain the query's minimum under any selection (module docs,
/// "Pool-aware pruning"): a plan whose `lo` exceeds the query's
/// no-index price. Both bounds are summed in the slot loop that builds
/// the plan, in [`WorkloadModel::plan_cost`]'s operation order.
pub(crate) fn flatten_query(cache: &PlanCache, access: &AccessCostCatalog) -> QueryModel {
    let params = access.params();
    let mut plans = Vec::with_capacity(cache.len());
    // The query's price under the empty selection: the least `hi`.
    let mut no_index = f64::INFINITY;
    'plans: for plan in cache.plans() {
        let mut slots = Vec::new();
        // `lo` prices every slot at its cheapest arm, `hi` at its
        // always-available arm (`+∞` once a slot has none).
        let mut lo = plan.internal;
        let mut hi = plan.internal;
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
            // Every kept slot has `coef ≠ 0` or a required order, so the
            // kernel prices its standalone term.
            lo += coef * standalone[0].cost;
            hi = always_term(hi, coef, &standalone);
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
                            cost: index_probe_total(params, &spec),
                            candidate: candidate.map_or(ALWAYS, |c| c as u32),
                        }
                    })
                    // In-domain inputs can overflow the loop branch of
                    // the index-scan formula to +∞. Every pricer reads a
                    // +∞ arm as inapplicable, so dropping it keeps every
                    // price, and the model holds only finite arms, as
                    // `from_parts` requires.
                    .filter(|arm| arm.cost.is_finite())
                    .collect();
                probes.sort_by(|a, b| a.cost.partial_cmp(&b.cost).unwrap());
                prune_arms(&mut probes);
                if probes.is_empty() {
                    continue 'plans; // no probe-able path will ever exist
                }
                lo += pcoef * probes[0].cost;
                hi = always_term(hi, pcoef, &probes);
            }
            slots.push(Slot {
                coef,
                pcoef,
                required: required.is_some(),
                standalone,
                probes,
            });
        }
        if hi < no_index {
            no_index = hi;
        }
        plans.push(FlatPlan {
            internal: plan.internal,
            lo,
            slots,
        });
    }
    plans.retain(|p| p.lo <= no_index);
    let qm = QueryModel { plans };
    #[cfg(debug_assertions)]
    if crate::sampling::should_assert() {
        debug_assert_pruning_exact(cache, access, &qm);
    }
    qm
}

/// `cost` plus a slot's always-available arm term (`coef ×` its cost),
/// or `+∞` when the run has no always arm: the kernel's slot term under
/// the empty selection. Pruning leaves the always arm, if any, last.
fn always_term(cost: f64, coef: f64, arms: &[AccessArm]) -> f64 {
    match arms.last() {
        Some(arm) if arm.candidate == ALWAYS => cost + coef * arm.cost,
        _ => f64::INFINITY,
    }
}

/// Debug check of the pool-aware pruning: packed alone, the pruned query
/// prices bit-identically to the unpruned `CacheCostModel::estimate`
/// under the empty selection (where `hi` binds) and under every candidate
/// the catalog mentions (where `lo` binds).
#[cfg(debug_assertions)]
fn debug_assert_pruning_exact(cache: &PlanCache, access: &AccessCostCatalog, qm: &QueryModel) {
    use crate::costing::CacheCostModel;
    let mentioned: Vec<usize> = access
        .per_rel()
        .iter()
        .flatten()
        .filter_map(|e| e.candidate)
        .collect();
    let pool_size = mentioned.iter().max().map_or(0, |&c| c + 1);
    let model = WorkloadModel::assemble(pool_size, vec![qm.clone()]);
    let oracle = CacheCostModel::new(cache, access);
    for selection in [
        Selection::empty(pool_size),
        Selection::from_ids(pool_size, &mentioned),
    ] {
        let kept = model.price_query(0, &selection, None);
        let all = oracle
            .estimate(&selection)
            .map_or(f64::INFINITY, |e| e.cost);
        debug_assert_eq!(
            kept.to_bits(),
            all.to_bits(),
            "pruned plans of {} price {kept} but the whole cache {all}",
            cache.query_name
        );
    }
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

    /// The exact single-probe delta total, priced on a throwaway floor.
    fn probe_total(
        wm: &WorkloadModel,
        state: &PricedWorkload,
        selection: &Selection,
        probe: Probe,
    ) -> f64 {
        let mut floor = SlotFloor::default();
        wm.commit_probe_on(state, selection, probe, &mut floor, &mut Vec::new())
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
        let back = WorkloadModel::from_parts(pool.len(), wm.to_parts()).expect("roundtrip");
        assert_eq!(back, wm, "parts roundtrip changed the model");
        // Tombstones must roundtrip too (empty extents, zero weight).
        wm.evict_query(0);
        let back =
            WorkloadModel::from_parts(pool.len(), wm.to_parts()).expect("tombstone roundtrip");
        assert_eq!(back, wm);
        assert_eq!(back.live_query_count(), 1);
        let sel = Selection::from_ids(pool.len(), &[0, 3]);
        assert_eq!(
            back.price_full(&sel).total().to_bits(),
            wm.price_full(&sel).total().to_bits()
        );
    }

    /// Pool-aware pruning on a hand-built one-relation cache: a plan that
    /// wins only through the cheaper of two candidates covering its
    /// required order survives (its `lo` takes the first arm, not the
    /// last), a plan whose `lo` ties the no-index price survives (the
    /// rule is strict), and a plan above it is dropped. Every selection
    /// prices like the unpruned `CacheCostModel`.
    #[test]
    fn pruning_keeps_every_plan_at_or_below_the_no_index_price() {
        use crate::access_costs::CandidateAccess;
        use crate::cache::CachedPlan;
        use pinum_cost::CostParams;
        use pinum_query::{InterestingOrders, Ioc};

        const ORDER: u16 = 7;
        let mut cache = PlanCache::new("q", 1, InterestingOrders::new(vec![vec![ORDER]]));
        for (description, ordered, internal) in [
            ("scan+sort", false, 100.0),  // the no-index price, 100 + 50
            ("ordered", true, 20.0),      // 20 + 10 wins under {0}
            ("ordered-tie", true, 140.0), // lo = 140 + 10, the no-index price
            ("dead", false, 1_000.0),
        ] {
            cache.insert(CachedPlan {
                ioc: if ordered {
                    Ioc::NONE.with_order(0, 0)
                } else {
                    Ioc::NONE
                },
                internal,
                coefs: vec![1.0],
                probe_coefs: vec![0.0],
                uses_nlj: false,
                rows: 1.0,
                description: description.into(),
            });
        }
        let entry = |candidate, order, cost| CandidateAccess {
            candidate,
            order,
            cost,
            probe: None,
        };
        let access = AccessCostCatalog::from_parts(
            vec![vec![
                entry(Some(0), Some(ORDER), 10.0),
                entry(None, None, 50.0),
                entry(Some(1), Some(ORDER), 200.0),
            ]],
            CostParams::default(),
        );
        let wm = WorkloadModel::build(2, [(&cache, &access)]);
        assert_eq!(
            wm.to_parts().plan_internal,
            [100.0, 20.0, 140.0],
            "only the dead plan is dropped"
        );
        let oracle = CacheCostModel::new(&cache, &access);
        for ids in [&[][..], &[0], &[1], &[0, 1]] {
            let sel = Selection::from_ids(2, ids);
            let want = oracle.estimate(&sel).map_or(f64::INFINITY, |e| e.cost);
            assert_eq!(
                wm.price_query(0, &sel, None).to_bits(),
                want.to_bits(),
                "{ids:?}"
            );
        }
        assert_eq!(wm.price_query(0, &Selection::from_ids(2, &[0]), None), 30.0);
    }

    /// A nested-loop plan over an index whose probe overflows
    /// `cost_index_scan`'s loop branch to +∞ from finite, in-domain inputs
    /// (`probe_coefs` 1000, `heap_rows = index_rows = 1e308`, `heap_pages =
    /// 2^40`). Flattening drops that arm, so the model holds only finite
    /// arms, round-trips through its parts (restore refuses non-finite
    /// arms) and prices like the unpruned `CacheCostModel` everywhere.
    #[test]
    fn overflowing_probe_arms_are_dropped_at_flattening() {
        use crate::access_costs::CandidateAccess;
        use crate::cache::CachedPlan;
        use pinum_cost::scan::IndexScanInput;
        use pinum_cost::CostParams;
        use pinum_query::{InterestingOrders, Ioc};

        const ORDER: u16 = 7;
        let mut cache = PlanCache::new("nlj", 1, InterestingOrders::new(vec![vec![ORDER]]));
        for (description, ordered, internal, coef, pcoef) in [
            ("scan", false, 1000.0, 1.0, 0.0),
            ("probe", true, 10.0, 0.0, 1000.0),
        ] {
            cache.insert(CachedPlan {
                ioc: if ordered {
                    Ioc::NONE.with_order(0, 0)
                } else {
                    Ioc::NONE
                },
                internal,
                coefs: vec![coef],
                probe_coefs: vec![pcoef],
                uses_nlj: ordered,
                rows: 1.0,
                description: description.into(),
            });
        }
        let huge = IndexScanInput {
            index_rows: 1e308,
            heap_rows: 1e308,
            heap_pages: 1 << 40,
            ..IndexScanInput::default()
        };
        let params = CostParams::default();
        let at_loops = IndexScanInput {
            loop_count: 1000.0,
            ..huge
        };
        assert!(index_probe_total(&params, &at_loops).is_infinite());
        let entry = |candidate, order, cost, probe| CandidateAccess {
            candidate,
            order,
            cost,
            probe,
        };
        let access = AccessCostCatalog::from_parts(
            vec![vec![
                entry(Some(0), Some(ORDER), 10.0, Some(IndexScanInput::default())),
                entry(Some(1), Some(ORDER), 20.0, Some(huge)),
                entry(None, None, 50.0, None),
            ]],
            params,
        );
        let wm = WorkloadModel::build(2, [(&cache, &access)]);
        let parts = wm.to_parts();
        assert_eq!(parts.plan_internal, [1000.0, 10.0], "both plans can win");
        assert!(parts.arm_costs.iter().all(|c| c.is_finite()));
        let back = WorkloadModel::from_parts(2, parts).expect("finite arms restore");
        assert_eq!(back, wm);
        let oracle = CacheCostModel::new(&cache, &access);
        for ids in [&[][..], &[0], &[1], &[0, 1]] {
            let sel = Selection::from_ids(2, ids);
            let want = oracle.estimate(&sel).map_or(f64::INFINITY, |e| e.cost);
            assert_eq!(
                back.price_query(0, &sel, None).to_bits(),
                want.to_bits(),
                "{ids:?}"
            );
        }
    }

    /// Parts written before pool-aware pruning hold plans the rule drops.
    /// They restore as they are and price like the pruned model: pruning
    /// changed the content of a snapshot, not its layout.
    #[test]
    fn unpruned_parts_restore_and_price_identically() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        let mut p = wm.to_parts();
        // A dead plan on the last query, appended at the ends of the plan,
        // slot and arm arrays: one slot whose cheapest arm (candidate 0)
        // still leaves it above the query's no-index price.
        let q = wm.query_count() - 1;
        let no_index = wm.price_query(q, &Selection::empty(pool.len()), None);
        assert!(no_index.is_finite());
        let arm = p.arm_costs.len() as u32;
        p.arm_costs.push(1.0);
        p.arm_cands.push(0);
        let slot = p.slot_coef.len() as u32;
        p.slot_coef.push(1.0);
        p.slot_pcoef.push(0.0);
        p.slot_s_always.push(2.0);
        p.slot_p_always.push(f64::INFINITY);
        p.slot_s_start.push(arm);
        p.slot_s_end.push(arm + 1);
        p.slot_p_start.push(arm + 1);
        p.slot_p_end.push(arm + 1);
        p.slot_required.push(false);
        p.plan_internal.push(2.0 * no_index);
        p.plan_slot_start.push(slot);
        p.plan_slot_end.push(slot + 1);
        p.query_plan_end[q] += 1;

        let restored = WorkloadModel::from_parts(pool.len(), p).expect("unpruned parts restore");
        assert_ne!(restored, wm, "the dead plan was not appended");
        assert!(restored.query_arm_count(q) > wm.query_arm_count(q));
        for mask in 0u32..(1 << pool.len()) {
            let ids: Vec<usize> = (0..pool.len()).filter(|i| mask & (1 << i) != 0).collect();
            let sel = Selection::from_ids(pool.len(), &ids);
            for query in 0..wm.query_count() {
                assert_eq!(
                    restored.price_query(query, &sel, None).to_bits(),
                    wm.price_query(query, &sel, None).to_bits(),
                    "query {query} selection {ids:?}"
                );
            }
            let state = wm.price_full(&sel);
            assert_eq!(
                restored.price_full(&sel).total().to_bits(),
                state.total().to_bits()
            );
            for cand in (0..pool.len()).filter(|&c| !sel.contains(c)) {
                let probe = Probe::Add { cand };
                assert_eq!(
                    probe_total(&restored, &state, &sel, probe).to_bits(),
                    probe_total(&wm, &state, &sel, probe).to_bits(),
                    "selection {ids:?} + {cand}"
                );
            }
        }
    }

    #[test]
    fn hostile_parts_are_rejected_not_panicked() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        let good = wm.to_parts();

        // The parts' pool size is checked against the caller's pool
        // before anything is sized from it: never allocated, not even
        // attempted.
        let mut p = good.clone();
        p.pool_size = u64::MAX;
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());
        assert!(WorkloadModel::from_parts(pool.len() + 1, good.clone()).is_err());

        let mut p = good.clone();
        p.slot_s_end[0] = u32::MAX; // extent past the arm arrays
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let mut p = good.clone();
        p.arm_cands[0] = pool.len() as u32; // candidate outside the pool
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        // Terms the bounded kernel scan needs non-negative (and, but for
        // the always-arm `+∞` mark, finite).
        let mut p = good.clone();
        p.arm_costs[0] = -1.0;
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let mut p = good.clone();
        p.plan_internal[0] = -1.0;
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let mut p = good.clone();
        p.plan_internal[0] = f64::NAN;
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let mut p = good.clone();
        p.slot_coef[0] = f64::NAN;
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let mut p = good.clone();
        p.slot_pcoef[0] = -0.5;
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let scan = good.slot_s_always.iter().position(|c| c.is_finite());
        let mut p = good.clone();
        p.slot_s_always[scan.expect("a slot with an always arm")] = -1.0;
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let no_probe = good.slot_p_always.iter().position(|c| c.is_infinite());
        let mut p = good.clone();
        p.slot_p_always[no_probe.expect("a slot without an always probe")] = f64::NAN;
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let mut p = good.clone();
        p.weights[0] = -1.0; // live query with a non-positive weight
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let mut p = good.clone();
        p.weights.pop(); // query arrays out of sync
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        // Extents must tile: no mutation path shares a plan or a slot.
        let mut p = good.clone();
        p.query_plan_start[1] = p.query_plan_start[0]; // query 1 reuses query 0's plans
        p.query_plan_end[1] = p.query_plan_end[0];
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());

        let mut p = good.clone();
        let n_slots = p.slot_coef.len() as u32;
        p.plan_slot_start.fill(0); // every plan spans every slot
        p.plan_slot_end.fill(n_slots);
        assert!(WorkloadModel::from_parts(pool.len(), p).is_err());
    }

    #[test]
    fn affected_index_is_sound_and_minimal_enough() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        // Soundness: a query NOT in affected(c) never changes price when c
        // is added, under any base selection.
        for cand in 0..pool.len() {
            let affected: Vec<u32> = wm.affected(cand).collect();
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
            !wm.affected(d_cand).any(|q| q == 1),
            "single-table query q2 affected by a d index"
        );
    }

    #[test]
    fn derived_footprint_agrees_with_inverted_index() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut wm = model_of(&models, &pool);
        for q in 0..wm.query_count() {
            let (cands, arms) = wm.footprint(q);
            assert!(arms >= cands.len() && arms > 0, "query {q} counts no arms");
            for cand in 0..pool.len() {
                assert_eq!(
                    cands.contains(&(cand as u32)),
                    wm.affected(cand).any(|a| a == q as u32),
                    "footprint of query {q} disagrees with the arm index on {cand}"
                );
            }
        }
        wm.evict_query(1);
        assert_eq!(
            wm.footprint(1),
            (Vec::new(), 0),
            "tombstone keeps a footprint"
        );
    }

    /// `affected(c)` is derived from the arm index's per-query runs: after
    /// a build, an eviction in the middle, a compaction and a parts round
    /// trip, it lists exactly the live queries whose arm runs hold `c`.
    #[test]
    fn affected_is_the_queries_whose_arms_hold_the_candidate() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let three = [&models[0], &models[1], &models[0]];
        let mut wm = WorkloadModel::build(pool.len(), three.iter().map(|(c, a)| (c, a)));
        let check = |wm: &WorkloadModel, step: &str| {
            let p = wm.to_parts();
            for cand in 0..pool.len() as u32 {
                let holding: Vec<u32> = (0..p.live.len())
                    .filter(|&q| p.live[q])
                    .filter(|&q| {
                        let plans = p.query_plan_start[q] as usize..p.query_plan_end[q] as usize;
                        plans
                            .flat_map(|pl| p.plan_slot_start[pl]..p.plan_slot_end[pl])
                            .flat_map(|s| p.slot_s_start[s as usize]..p.slot_p_end[s as usize])
                            .any(|arm| p.arm_cands[arm as usize] == cand)
                    })
                    .map(|q| q as u32)
                    .collect();
                let affected: Vec<u32> = wm.affected(cand as usize).collect();
                assert_eq!(affected, holding, "{step}: candidate {cand}");
            }
        };
        check(&wm, "build");
        assert!(
            (0..pool.len()).any(|c| wm.affected(c).count() > 1),
            "no candidate spans queries"
        );
        wm.evict_query(1);
        check(&wm, "evict");
        assert_eq!(wm.compact(), vec![0, u32::MAX, 1]);
        check(&wm, "compact");
        let back = WorkloadModel::from_parts(pool.len(), wm.to_parts()).expect("roundtrip");
        check(&back, "from_parts");
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

    /// The bottom-up overlay adds what a splice then a re-total adds, in
    /// the same tree shape: one query, an exact power of two, the last
    /// leaf alone, every leaf, and random sparse lists, over costs whose
    /// magnitudes make every addition round.
    #[test]
    fn overlaid_total_equals_the_spliced_total() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut draw = || {
            let x = next();
            (x % 1000) as f64 * 0.1 + (x / 1000 % 7) as f64 * 1e15
        };
        for n in [1u32, 2, 5, 8, 13, 16, 33] {
            let state = PricedWorkload::from_costs((0..n).map(|_| draw()).collect());
            let mut lists: Vec<Vec<(u32, f64)>> = vec![
                vec![],
                vec![(0, draw())],
                vec![(n - 1, draw())],
                (0..n).map(|q| (q, draw())).collect(),
            ];
            for _ in 0..8 {
                // Each leaf joins with odds of one in five.
                let sparse = (0..n)
                    .map(|q| (q, draw()))
                    .filter(|&(_, c)| (c as u64).is_multiple_of(5));
                lists.push(sparse.collect());
            }
            for changed in lists {
                let mut spliced = state.clone();
                spliced.apply_changed(&changed);
                assert_eq!(
                    state.overlaid_total(&changed).to_bits(),
                    spliced.total().to_bits(),
                    "{n} leaves, changed {changed:?}"
                );
                assert_eq!(
                    spliced.total().to_bits(),
                    pairwise_total(spliced.per_query()).to_bits()
                );
            }
        }
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
            let mut floor = SlotFloor::default();
            let got = wm.price_batch_on(&state, &selection, &probes, None, &mut floor);
            assert_eq!(got.len(), probes.len());
            for (&probe, d) in probes.iter().zip(&got) {
                let full = wm.price_full(&probed_selection(&selection, probe));
                let moved: Vec<(u32, f64)> = (0..wm.query_count() as u32)
                    .map(|q| (q, full.per_query()[q as usize]))
                    .filter(|&(q, c)| c.to_bits() != state.per_query()[q as usize].to_bits())
                    .collect();
                let mut changed = Vec::new();
                let mut fresh = SlotFloor::default();
                let single =
                    wm.commit_probe_on(&state, &selection, probe, &mut fresh, &mut changed);
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
        let got = wm.price_batch_on(&state, &selection, &probes, None, &mut SlotFloor::default());
        for (p, d) in probes.iter().zip(&got) {
            let Probe::Add { cand } = *p else {
                unreachable!()
            };
            assert_eq!(d.repriced, wm.affected(cand).count());
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
            let mut floor = SlotFloor::default();
            let got = wm.price_batch_on(&state, &selection, &probes, Some(mask), &mut floor);
            for (&p, d) in probes.iter().zip(&got) {
                let mut fresh = SlotFloor::default();
                let exact = wm.commit_probe_on(&state, &selection, p, &mut fresh, &mut scratch);
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

    #[test]
    fn shared_drop_swap_runs_price_like_single_probes() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let wm = model_of(&models, &pool);
        let nq = wm.query_count() as u32;
        // No mask, then every subset mask of the (tiny) query set.
        let masks: Vec<Option<Vec<u32>>> = std::iter::once(None)
            .chain(
                (0..(1u32 << nq))
                    .map(|bits| Some((0..nq).filter(|q| bits & (1 << q) != 0).collect())),
            )
            .collect();
        for selection in all_selections(&pool) {
            let members: Vec<usize> = selection.ids().collect();
            let outside: Vec<usize> = (0..pool.len())
                .filter(|&c| !selection.contains(c))
                .collect();
            let (Some(&d0), Some(&a0)) = (members.first(), outside.first()) else {
                continue;
            };
            let swap = |add, drop| Probe::Swap { add, drop };
            let sep = Probe::Add { cand: a0 };
            // The full drop-major neighbourhood, every member used as a
            // drop; then runs of length 1 and 2; then d0's neighbourhood
            // split into two runs by an add.
            let mut probes: Vec<Probe> = members
                .iter()
                .flat_map(|&d| outside.iter().map(move |&a| swap(a, d)))
                .collect();
            let a_last = *outside.last().unwrap();
            probes.extend([sep, swap(a0, d0), sep, swap(a0, d0), swap(a_last, d0), sep]);
            let half = outside.len().div_ceil(2);
            probes.extend(outside[..half].iter().map(|&a| swap(a, d0)));
            probes.push(sep);
            probes.extend(outside[half..].iter().map(|&a| swap(a, d0)));

            let state = wm.price_full(&selection);
            for mask in &masks {
                let mask = mask.as_deref();
                let admitted = |q: &u32| mask.is_none_or(|m| m.binary_search(q).is_ok());
                let mut floor = SlotFloor::default();
                let got = wm.price_batch_on(&state, &selection, &probes, mask, &mut floor);
                assert_eq!(got.len(), probes.len());
                for (&probe, got) in probes.iter().zip(&got) {
                    // The single-probe delta, restricted to the mask
                    // (unmasked, its own total and `repriced`).
                    let mut exact = Vec::new();
                    let mut fresh = SlotFloor::default();
                    wm.commit_probe_on(&state, &selection, probe, &mut fresh, &mut exact);
                    let cands = match probe {
                        Probe::Add { cand } | Probe::Drop { cand } => vec![cand],
                        Probe::Swap { add, drop } => vec![add, drop],
                    };
                    let mut union: Vec<u32> = cands.iter().flat_map(|&c| wm.affected(c)).collect();
                    union.sort_unstable();
                    union.dedup();
                    exact.retain(|(q, _)| admitted(q));
                    let want = (
                        state.overlaid_total(&exact).to_bits(),
                        union.iter().filter(|q| admitted(q)).count(),
                    );
                    let got = (got.total.to_bits(), got.repriced);
                    assert_eq!(got, want, "mask {mask:?} {probe:?}");
                }
            }
        }
    }
}
