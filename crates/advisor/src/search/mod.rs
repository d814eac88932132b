//! # Index-selection search over the workload model
//!
//! The paper's §V-E tool is one greedy loop over a what-if cost oracle.
//! Here the oracle is the incremental [`pinum_core::WorkloadModel`], and
//! the loop comes in four [`StrategyKind`]s, all budget-aware through the
//! same [`GreedyOptions`] and all reporting the same [`GreedyResult`]:
//!
//! * [`StrategyKind::EagerGreedy`] — the reference §V-E greedy: every
//!   round probes every remaining in-budget candidate with an add-delta
//!   and picks the best strictly positive benefit.
//! * [`StrategyKind::LazyGreedy`] — the same search driven by a max-heap
//!   of **stale benefit upper bounds** (Minoux's lazy evaluation). A
//!   candidate is re-priced only when its stale bound tops the heap; a
//!   *fresh* top is the exact argmax and is picked without touching the
//!   rest of the pool.
//!
//!   **Invariant this relies on:** a candidate's observed benefit never
//!   increases as the selection grows (diminishing returns). The flattened
//!   cost model makes that plausible — adding an index can only lower the
//!   per-query minimum, shrinking what any *other* index can still save —
//!   and the `search_strategies` experiment and equivalence tests verify
//!   the consequence: lazy greedy reproduces eager greedy's pick sequence
//!   and cost trajectory **bit for bit** while probing a fraction of the
//!   pool. Ties break toward the lowest candidate id, exactly like the
//!   eager scan's strict `>` argmax.
//! * [`StrategyKind::SwapHillClimb`] — drop-one/add-one local search
//!   seeded from lazy greedy, enabled by swap probes
//!   ([`pinum_core::Probe::Swap`]), which the delta kernel prices over
//!   both candidates' arm runs, merged by query (each query either index
//!   affects is re-priced once). Escapes the one-directional greedy's local
//!   optima (e.g. a narrow index picked early whose slot a later covering
//!   index serves better).
//! * [`StrategyKind::Anneal`] — deterministic seeded simulated annealing
//!   over add/drop/swap moves, accepting uphill moves with a cooling
//!   Metropolis rule. Seeded from lazy greedy and returning the best
//!   selection ever visited, so it can never end worse than its seed.
//!
//! [`StrategyKind::search_scoped`] matches on the kind and drives one
//! private function per strategy over one `Run`, which owns everything a
//! search carries: the selection, its picks, bytes and exact priced state,
//! the cost trajectory and the probe counters. The swap climb and the
//! annealing walk continue the very run their lazy-greedy seed built.
//!
//! The run also owns a [`pinum_core::SlotFloor`]: each probed query's slot
//! minima (with the arm attaining each and its runner-up) and plan costs
//! under the run's selection, filled the first time a probe touches the
//! query and settled by every committed move, so a probe reads only its
//! candidates' arms (the model's arm index, one run per affected query)
//! instead of re-pricing every affected query, and a drop reads the
//! runner-up of each slot it takes the winner from instead of rescanning
//! it. A seeded run builds it empty on the seeded selection, and a refused
//! masked move (below) builds a fresh one on the unchanged selection.
//!
//! Each strategy prices its moves through `Run::price`
//! ([`WorkloadModel::price_batch_on`] on the caller's thread): eager
//! greedy one frontier per round, the swap climb one drop-major
//! neighbourhood per round (the kernel prices each dropped index's
//! affected queries once per neighbourhood, not once per exchange, and
//! totals each exchange on the drop's spliced sum tree), and
//! annealing one proposal at a time, when its Metropolis walk reaches it.
//! Annealing's block of 16 fixes only its RNG draws: a block's proposals
//! are all drawn first, and those after its first acceptance are never
//! priced. Lazy greedy re-prices stale heap tops in waves of 1→32, the one
//! batch shape that can price a probe ahead of need; its waves are part of
//! its probe accounting. So [`GreedyResult::evaluations`] counts the
//! probes a search priced, and [`GreedyResult::queries_repriced`] sums
//! their [`pinum_core::ProbeDelta::repriced`]. A move the strategy accepts
//! goes through `Run::commit`: it is re-derived exactly, on the probe it
//! ranked, with [`WorkloadModel::commit_probe_on`] — the same kernel
//! body, one probe, unmasked, settling the floor as it goes — and its
//! changed queries are spliced into the running state.
//!
//! The naive closure-driven `greedy_select` in [`crate::greedy`] is the
//! search oracle: the equivalence tests require eager greedy to reproduce
//! it bit for bit over the same cached models.

mod anneal;
mod greedy;
mod swap;

use crate::greedy::{GreedyOptions, GreedyResult};
use pinum_core::{
    CandidatePool, PricedWorkload, Probe, ProbeDelta, Selection, SlotFloor, WorkloadModel,
};

/// Upper bound on the swaps [`StrategyKind::SwapHillClimb`] accepts (each
/// round scans |selection| × |pool| exchanges; the bound keeps worst-case
/// cost predictable).
const SWAP_ROUNDS: usize = 32;

/// Restrictions and carried-over state for one search run — the scoping
/// layer of template-attributed online re-advising.
///
/// * `mask` limits which **non-member** candidates the strategy may probe
///   for addition (or swap in). Warm-seed members are always adopted and
///   may still be dropped or swapped out; an absent mask (or a mask
///   containing every candidate) makes the search **bit-identical** to
///   the unscoped one.
/// * `warm_state` is the exact priced state of the warm selection
///   (bit-identical to `model.price_full(warm)`, e.g. from a
///   [`pinum_core::PricingSession`]). When the warm seed is adopted
///   untruncated, the strategy starts from this state instead of paying
///   its seeding full re-pricing — the totals are bit-identical either
///   way, only [`GreedyResult::full_repricings`] (and the probe
///   accounting for the skipped seed pricing) differ.
/// * `query_mask` (sorted ascending qids) scopes the *pricing* itself:
///   batched probes re-price only the masked queries, ranking moves by
///   their masked deltas. Accepted moves are always re-derived with the
///   exact unmasked single-probe delta before being applied, so the
///   maintained state stays bit-identical to `price_full` even when the
///   mask changes which move wins. The greedy family and the swap climb also
///   **re-check the exact benefit** before committing — a move that
///   improves only the masked queries while regressing the full workload
///   is skipped (the next-best contender is tried instead), so masked
///   search never raises the true workload total. The annealing walk is
///   the deliberate exception: its Metropolis rule may accept
///   exact-worsening moves by design, and it returns the best *exact*
///   state visited.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchScope<'a> {
    /// Candidates the search may add (None = every candidate).
    pub mask: Option<&'a Selection>,
    /// Exact priced state of the warm selection, if the caller carries
    /// one across re-advises.
    pub warm_state: Option<&'a PricedWorkload>,
    /// Sorted query ids probes re-price (None = all queries, exact).
    pub query_mask: Option<&'a [u32]>,
}

impl<'a> SearchScope<'a> {
    /// No mask, no carried state — exactly today's unscoped search.
    pub fn all() -> Self {
        Self::default()
    }

    /// Attach the warm selection's exact priced state.
    pub fn with_warm_state(mut self, state: &'a PricedWorkload) -> Self {
        self.warm_state = Some(state);
        self
    }

    /// Scope probe pricing to `queries` (sorted ascending query ids).
    pub fn with_query_mask(mut self, queries: &'a [u32]) -> Self {
        debug_assert!(queries.is_sorted(), "query mask must be sorted");
        self.query_mask = Some(queries);
        self
    }

    /// Whether the scope lets the search add `candidate`.
    pub fn allows(&self, candidate: usize) -> bool {
        self.mask.is_none_or(|m| m.contains(candidate))
    }
}

/// The search policy over the incremental pricing substrate — what
/// [`crate::tool::AdvisorOptions`], the online advisor's options, the wire
/// and the snapshot codec carry. A plain enum, so options stay `Copy`.
///
/// Every kind is deterministic: the same pool, model, options, warm set
/// and scope yield the same [`GreedyResult`] on every run (annealing
/// carries its own seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyKind {
    /// Lazy greedy (the default): identical output to the reference
    /// greedy, fraction of the probes.
    LazyGreedy,
    /// Reference eager greedy (probes every candidate every round).
    EagerGreedy,
    /// Greedy seed + drop-one/add-one hill climbing.
    SwapHillClimb,
    /// Greedy seed + deterministic simulated annealing.
    Anneal {
        /// RNG seed (the run is fully determined by it).
        seed: u64,
    },
}

impl StrategyKind {
    /// The kind itself. It exists only because the benchmark (`perfbench`)
    /// calls `kind.build().search(..)`; ROADMAP direction 4(c) removes it.
    pub fn build(self) -> Self {
        self
    }

    /// Runs the search from scratch (an empty warm set), returning picks,
    /// final selection, cost trajectory, and probe accounting.
    pub fn search(
        self,
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
    ) -> GreedyResult {
        let empty = Selection::empty(pool.len());
        self.search_scoped(pool, model, opts, &empty, &SearchScope::all())
    }

    /// Runs the search **warm-started** from a previous selection under a
    /// [`SearchScope`] — the online re-advising entry point. `warm`
    /// members are adopted in ascending id order while they fit the budget
    /// (deterministic truncation when the budget shrank), then the
    /// strategy continues from there: the greedy family keeps adding,
    /// swap/anneal can also drop or exchange stale warm picks. Addition
    /// probes are restricted to the scope's mask and the seed pricing
    /// reuses the scope's carried warm state when valid. With an empty
    /// `warm` and [`SearchScope::all`] this **is** [`Self::search`], bit
    /// for bit — scoping only ever removes probes.
    pub fn search_scoped(
        self,
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
        warm: &Selection,
        scope: &SearchScope<'_>,
    ) -> GreedyResult {
        let mut run = Run::seed(pool, model, opts, warm, *scope);
        match self {
            Self::EagerGreedy => greedy::eager(&mut run),
            Self::LazyGreedy => greedy::lazy(&mut run),
            Self::SwapHillClimb => {
                greedy::lazy(&mut run);
                swap::climb(&mut run, SWAP_ROUNDS);
            }
            Self::Anneal { seed } => {
                greedy::lazy(&mut run);
                anneal::walk(&mut run, seed);
            }
        }
        run.finish()
    }
}

/// One search run: the bookkeeping every strategy shares. The strategies
/// differ only in which probes they price and which moves they commit.
struct Run<'a> {
    pool: &'a CandidatePool,
    model: &'a WorkloadModel,
    opts: &'a GreedyOptions,
    scope: SearchScope<'a>,
    selection: Selection,
    /// Members in acquisition order: a dropped index leaves, an added one
    /// joins at the end.
    picked: Vec<usize>,
    used_bytes: u64,
    /// The exact priced state of `selection`, bit-identical to
    /// `model.price_full(&selection)`.
    state: PricedWorkload,
    trajectory: Vec<f64>,
    evaluations: usize,
    queries_repriced: usize,
    full_repricings: usize,
    /// The changed-query list [`Self::commit`] splices.
    scratch: Vec<(u32, f64)>,
    /// Each probed query's slot minima and plan costs under `selection`,
    /// which every probe of the run prices from and every commit moves
    /// with the selection (see [`pinum_core::SlotFloor`]).
    floor: SlotFloor,
}

impl<'a> Run<'a> {
    /// Adopts `warm` members in ascending id order while they fit the
    /// budget, then prices the seeded selection. When the scope carries
    /// the warm selection's exact priced state *and* the budget adopted
    /// the warm set untruncated, the carried state is cloned — zero
    /// re-pricing — and nothing is added to the probe accounting.
    /// Otherwise the seeded selection is fully priced, with the classic
    /// accounting (one evaluation, `query_count` re-pricings, one full
    /// re-pricing).
    fn seed(
        pool: &'a CandidatePool,
        model: &'a WorkloadModel,
        opts: &'a GreedyOptions,
        warm: &Selection,
        scope: SearchScope<'a>,
    ) -> Self {
        assert_eq!(
            pool.len(),
            model.pool_size(),
            "model built against a different candidate pool"
        );
        let mut selection = Selection::empty(pool.len());
        let mut picked = Vec::new();
        let mut used_bytes = 0u64;
        for id in warm.ids() {
            let size = pool.index(id).size().total_bytes();
            if used_bytes + size <= opts.budget_bytes {
                selection.insert(id);
                picked.push(id);
                used_bytes += size;
            }
        }
        let mut full_repricings = 0;
        let state = match scope.warm_state {
            Some(state) if selection.ids().eq(warm.ids()) => {
                state.debug_assert_bit_identical_to_full(model, &selection);
                state.clone()
            }
            _ => {
                full_repricings = 1;
                model.price_full(&selection)
            }
        };
        // Empty: a warm scoped re-advise fills only what it probes.
        let floor = SlotFloor::new(model, &selection);
        Self {
            pool,
            model,
            opts,
            scope,
            selection,
            picked,
            used_bytes,
            trajectory: vec![state.total()],
            state,
            evaluations: full_repricings,
            queries_repriced: full_repricings * model.query_count(),
            full_repricings,
            scratch: Vec::new(),
            floor,
        }
    }

    fn bytes(&self, cand: usize) -> u64 {
        self.pool.index(cand).size().total_bytes()
    }

    /// Whether the run may take `probe`: what it adds is a non-member the
    /// scope allows, and the selection it moves to fits the budget.
    fn admits(&self, probe: Probe) -> bool {
        let (add, drop) = probe.moved();
        let bytes = self.used_bytes - drop.map_or(0, |d| self.bytes(d));
        let bytes = bytes + add.map_or(0, |a| self.bytes(a));
        let addable = add.is_none_or(|a| !self.selection.contains(a) && self.scope.allows(a));
        addable && bytes <= self.opts.budget_bytes
    }

    /// What greedy ranks adding `cand` by: its `benefit`, per byte when
    /// the options ask for it.
    fn score(&self, cand: usize, benefit: f64) -> f64 {
        if self.opts.benefit_per_byte {
            benefit / self.bytes(cand).max(1) as f64
        } else {
            benefit
        }
    }

    /// Prices `probes` against the current state and floor under the
    /// scope's query mask, counting each; every delta lands at its probe's
    /// index.
    fn price(&mut self, probes: &[Probe]) -> Vec<ProbeDelta> {
        let deltas = self.model.price_batch_on(
            &self.state,
            &self.selection,
            probes,
            self.scope.query_mask,
            &mut self.floor,
        );
        self.evaluations += deltas.len();
        self.queries_repriced += deltas.iter().map(|d| d.repriced).sum::<usize>();
        deltas
    }

    /// Applies `probe`: re-derives its exact **unmasked** delta from the
    /// floor (counted, and debug-asserted bit-identical to a full
    /// re-pricing inside the kernel), settling the probe's affected
    /// queries onto the probed selection as it goes, and splices the
    /// changed queries into the state — an O(changed·log n) update, never
    /// a full re-pricing — then moves the selection, picks and bytes.
    ///
    /// A `descent` move must lower the exact total. A query mask ranks
    /// moves by their *masked* delta, so a move that helps the masked
    /// queries while regressing the rest would raise the true workload
    /// total: such a move is refused (`false`: the selection, state and
    /// picks stay, and the floor, which the commit settled onto the
    /// refused move, starts fresh on the selection) and the caller tries
    /// its next-best contender. Unmasked, the exact delta is
    /// bit-identical to the batch's, so a ranked descent move never fails
    /// the check. An accepted descent move extends the trajectory.
    fn commit(&mut self, probe: Probe, descent: bool) -> bool {
        let model = self.model;
        let exact = model.commit_probe_on(
            &self.state,
            &self.selection,
            probe,
            &mut self.floor,
            &mut self.scratch,
        );
        self.evaluations += 1;
        self.queries_repriced += exact.repriced;
        let gain = self.state.total() - exact.total;
        if descent && (gain.is_nan() || gain <= 0.0) {
            debug_assert!(
                self.scope.query_mask.is_some(),
                "unmasked exact delta diverged from its batch delta"
            );
            // The floor stands on the refused move: start a fresh one.
            self.floor = SlotFloor::new(model, &self.selection);
            return false;
        }
        // The spliced tree root lands bit-identical to the delta's total
        // (same leaves, same fixed tree shape).
        self.state.apply_changed(&self.scratch);
        debug_assert_eq!(
            self.state.total().to_bits(),
            exact.total.to_bits(),
            "spliced sum-tree total diverged from the delta's overlaid total"
        );
        let (add, drop) = probe.moved();
        if let Some(drop) = drop {
            self.selection.remove(drop);
            self.used_bytes -= self.bytes(drop);
            self.picked.retain(|&p| p != drop);
        }
        if let Some(add) = add {
            self.selection.insert(add);
            self.used_bytes += self.bytes(add);
            self.picked.push(add);
        }
        (self.state).debug_assert_bit_identical_to_full(model, &self.selection);
        if descent {
            self.trajectory.push(self.state.total());
        }
        true
    }

    fn finish(self) -> GreedyResult {
        GreedyResult {
            picked: self.picked,
            selection: self.selection,
            cost_trajectory: self.trajectory,
            total_bytes: self.used_bytes,
            evaluations: self.evaluations,
            queries_repriced: self.queries_repriced,
            full_repricings: self.full_repricings,
            final_state: Some(self.state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pinum_catalog::{Catalog, Column, ColumnType, Table};
    use pinum_core::access_costs::collect_pinum;
    use pinum_core::builder::{build_cache_pinum, BuilderOptions};
    use pinum_optimizer::Optimizer;
    use pinum_query::QueryBuilder;

    /// Small two-query fixture shared by the strategy tests.
    pub(crate) fn fixture() -> (CandidatePool, WorkloadModel) {
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
        let pool = crate::candidates::generate_candidates(&cat, &[q1.clone(), q2.clone()]);
        let opt = Optimizer::new(&cat);
        let models: Vec<_> = [&q1, &q2]
            .iter()
            .map(|q| {
                let built = build_cache_pinum(&opt, q, &BuilderOptions::default());
                let (access, _) = collect_pinum(&opt, q, &pool);
                (built.cache, access)
            })
            .collect();
        let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
        (pool, model)
    }

    /// Everything a search reports, floats as bits: what the walk pins
    /// compare.
    #[derive(Debug, PartialEq)]
    pub(crate) struct Pin {
        pub picked: Vec<usize>,
        pub trajectory_bits: Vec<u64>,
        pub evaluations: usize,
        pub queries_repriced: usize,
        pub total_bytes: u64,
        pub final_total_bits: u64,
    }

    fn pin(r: &GreedyResult) -> Pin {
        Pin {
            picked: r.picked.clone(),
            trajectory_bits: r.cost_trajectory.iter().map(|c| c.to_bits()).collect(),
            evaluations: r.evaluations,
            queries_repriced: r.queries_repriced,
            total_bytes: r.total_bytes,
            final_total_bits: r.final_state.as_ref().unwrap().total().to_bits(),
        }
    }

    /// The two pinned shapes of a run on [`fixture`] under a 20 MiB
    /// budget: (a) a cold, unscoped search; (b) the scoped re-advise the
    /// online advisor runs — warm-started from the stale set {2, 7} with
    /// its exact priced state, pricing scoped to query 0. Under (b) the
    /// swap climb and the annealing walk both move past their lazy seed.
    pub(crate) fn pinned_runs(kind: StrategyKind) -> [Pin; 2] {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: 20 << 20,
            benefit_per_byte: false,
        };
        let warm = Selection::from_ids(pool.len(), &[2, 7]);
        let warm_state = model.price_full(&warm);
        let scope = SearchScope::all()
            .with_query_mask(&[0])
            .with_warm_state(&warm_state);
        [
            pin(&kind.search(&pool, &model, &opts)),
            pin(&kind.search_scoped(&pool, &model, &opts, &warm, &scope)),
        ]
    }

    const ALL_KINDS: [StrategyKind; 4] = [
        StrategyKind::LazyGreedy,
        StrategyKind::EagerGreedy,
        StrategyKind::SwapHillClimb,
        StrategyKind::Anneal { seed: 7 },
    ];

    /// The lazy-seeded swap climb, cut after `rounds` rounds.
    pub(crate) fn climb_rounds(
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
        rounds: usize,
    ) -> GreedyResult {
        let empty = Selection::empty(pool.len());
        let mut run = Run::seed(pool, model, opts, &empty, SearchScope::all());
        greedy::lazy(&mut run);
        swap::climb(&mut run, rounds);
        run.finish()
    }

    #[test]
    fn warm_start_from_empty_equals_cold_search() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: 256 << 20,
            benefit_per_byte: false,
        };
        for kind in ALL_KINDS {
            let cold = kind.search(&pool, &model, &opts);
            let empty = Selection::empty(pool.len());
            let warm = kind.search_scoped(&pool, &model, &opts, &empty, &SearchScope::all());
            assert_eq!(cold.picked, warm.picked, "{kind:?}");
            assert_eq!(cold.cost_trajectory, warm.cost_trajectory, "{kind:?}");
            assert_eq!(cold.evaluations, warm.evaluations, "{kind:?}");
        }
    }

    #[test]
    fn warm_start_from_own_result_never_regresses() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: 256 << 20,
            benefit_per_byte: false,
        };
        for kind in ALL_KINDS {
            let cold = kind.search(&pool, &model, &opts);
            let all = SearchScope::all();
            let warm = kind.search_scoped(&pool, &model, &opts, &cold.selection, &all);
            let c = *cold.cost_trajectory.last().unwrap();
            let w = *warm.cost_trajectory.last().unwrap();
            assert!(
                w <= c * (1.0 + 1e-12),
                "{kind:?}: warm restart regressed {w} vs {c}"
            );
            assert!(warm.total_bytes <= opts.budget_bytes);
            // Warm restarts get going from the seed, not from scratch: the
            // greedy family re-prices once and finds nothing new to add.
            if matches!(kind, StrategyKind::LazyGreedy | StrategyKind::EagerGreedy) {
                assert_eq!(warm.selection, cold.selection, "{kind:?}");
            }
        }
    }

    #[test]
    fn warm_seed_is_truncated_to_a_shrunken_budget() {
        let (pool, model) = fixture();
        let generous = GreedyOptions {
            budget_bytes: u64::MAX,
            benefit_per_byte: false,
        };
        let cold = StrategyKind::LazyGreedy.search(&pool, &model, &generous);
        assert!(cold.total_bytes > 0);
        // Re-advise under a budget smaller than the warm set itself.
        let tight = GreedyOptions {
            budget_bytes: cold.total_bytes / 2,
            benefit_per_byte: false,
        };
        for kind in ALL_KINDS {
            let all = SearchScope::all();
            let warm = kind.search_scoped(&pool, &model, &tight, &cold.selection, &all);
            assert!(
                warm.total_bytes <= tight.budget_bytes,
                "{kind:?} blew the shrunken budget"
            );
            assert_eq!(warm.selection.len(), warm.picked.len());
        }
    }

    #[test]
    fn queries_repriced_counts_every_probed_affected_list() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: u64::MAX,
            benefit_per_byte: false,
        };
        // What one unmasked probe over `cands` re-prices: the union of
        // their affected lists.
        let repriced = |cands: &[usize]| {
            let mut qs: Vec<u32> = cands.iter().flat_map(|&c| model.affected(c)).collect();
            qs.sort_unstable();
            qs.dedup();
            qs.len()
        };
        // Unscoped eager greedy: the seed pricing, then every round probes
        // every non-member and re-derives the pick it commits.
        let eager = StrategyKind::EagerGreedy.search(&pool, &model, &opts);
        assert!(eager.picked.len() >= 2);
        let mut expect = model.query_count();
        for round in 0..=eager.picked.len() {
            let selection = Selection::from_ids(pool.len(), &eager.picked[..round]);
            expect += (0..pool.len())
                .filter(|&c| !selection.contains(c))
                .map(|c| repriced(&[c]))
                .sum::<usize>();
            expect += eager.picked.get(round).map_or(0, |&pick| repriced(&[pick]));
        }
        assert_eq!(eager.queries_repriced, expect, "eager-greedy");

        // One swap round on the lazy seed: every exchange, then the
        // re-derivation of the one it accepts (if any).
        let seed = StrategyKind::LazyGreedy.search(&pool, &model, &opts);
        let swap = climb_rounds(&pool, &model, &opts, 1);
        let mut expect = seed.queries_repriced;
        for drop in seed.selection.ids() {
            expect += (0..pool.len())
                .filter(|&add| !seed.selection.contains(add))
                .map(|add| repriced(&[add, drop]))
                .sum::<usize>();
        }
        let exchanged: Vec<usize> = (0..pool.len())
            .filter(|&c| seed.selection.contains(c) != swap.selection.contains(c))
            .collect();
        expect += repriced(&exchanged);
        assert_eq!(swap.queries_repriced, expect, "swap-hill-climb");
    }

    /// A query mask can rank first a swap that raises the exact total.
    /// Warm {5, 10} fills the budget and pricing is scoped to query 1, so
    /// the masked neighbourhood ranks 5 → 11 first: it helps query 1 but
    /// costs query 0 more. The climb must refuse it, fall through to the
    /// next-best exchange, and stay a strict descent in the exact total.
    #[test]
    fn masked_climb_falls_through_an_exact_regression() {
        let (pool, model) = fixture();
        let warm = Selection::from_ids(pool.len(), &[5, 10]);
        let opts = GreedyOptions {
            budget_bytes: pool.selection_bytes(&warm),
            benefit_per_byte: false,
        };
        let warm_state = model.price_full(&warm);
        let refused = Selection::from_ids(pool.len(), &[10, 11]);
        assert!(model.price_full(&refused).total() > warm_state.total());
        let query_mask = [1];
        let scope = SearchScope::all()
            .with_warm_state(&warm_state)
            .with_query_mask(&query_mask);
        let mut run = Run::seed(&pool, &model, &opts, &warm, scope);
        let neighbourhood = (run.selection.ids())
            .flat_map(|drop| (0..pool.len()).map(move |add| Probe::Swap { add, drop }))
            .filter(|&probe| run.admits(probe))
            .count();
        swap::climb(&mut run, 1);
        // The round priced its neighbourhood, then re-derived two moves:
        // the refused 5 → 11 and the 10 → 11 it committed instead.
        assert_eq!(run.evaluations, neighbourhood + 2);
        assert_eq!(run.picked, [5, 11]);

        swap::climb(&mut run, SWAP_ROUNDS);
        let r = run.finish();
        let exact = &r.cost_trajectory;
        assert!(exact.len() >= 2);
        assert!(
            exact.windows(2).all(|w| w[1] < w[0]),
            "masked climb raised the exact total: {exact:?}"
        );
        assert!(*exact.last().unwrap() <= warm_state.total());
        let full = model.price_full(&r.selection).total();
        assert_eq!(r.final_state.unwrap().total().to_bits(), full.to_bits());
    }

    #[test]
    fn every_kind_builds_and_runs() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: 512 * 1024 * 1024,
            benefit_per_byte: false,
        };
        for kind in [
            StrategyKind::LazyGreedy,
            StrategyKind::EagerGreedy,
            StrategyKind::SwapHillClimb,
            StrategyKind::Anneal { seed: 7 },
        ] {
            let r = kind.build().search(&pool, &model, &opts);
            assert!(
                r.total_bytes <= opts.budget_bytes,
                "{kind:?} blew the budget"
            );
            assert_eq!(
                r.selection.len(),
                r.picked.len(),
                "{kind:?} picked/selection mismatch"
            );
            let last = *r.cost_trajectory.last().unwrap();
            let first = r.cost_trajectory[0];
            assert!(last <= first, "{kind:?} ended worse than it started");
        }
    }
}
