//! # Pluggable index-selection search strategies
//!
//! PR 1 turned workload pricing into an incremental substrate
//! ([`pinum_core::WorkloadModel`]): one flattening, then cheap deltas.
//! This module turns the *search* that runs on top of it into a framework.
//! The paper's single hard-coded greedy loop becomes one of several
//! [`SearchStrategy`] implementations, all budget-aware through the same
//! [`GreedyOptions`] and all reporting the same [`GreedyResult`]:
//!
//! * [`EagerGreedy`] — the reference §V-E greedy: every round probes every
//!   remaining in-budget candidate with an add-delta and picks the best
//!   strictly positive benefit.
//! * [`LazyGreedy`] — the same search driven by a max-heap of **stale
//!   benefit upper bounds** (Minoux's lazy evaluation). A candidate is
//!   re-priced only when its stale bound tops the heap; a *fresh* top is
//!   the exact argmax and is picked without touching the rest of the pool.
//!
//!   **Invariant this relies on:** a candidate's observed benefit never
//!   increases as the selection grows (diminishing returns). The flattened
//!   cost model makes that plausible — adding an index can only lower the
//!   per-query minimum, shrinking what any *other* index can still save —
//!   and the `search_strategies` experiment and equivalence tests verify
//!   the consequence: lazy greedy reproduces [`EagerGreedy`]'s pick
//!   sequence and cost trajectory **bit for bit** while probing a fraction
//!   of the pool. Ties break toward the lowest candidate id, exactly like
//!   the eager scan's strict `>` argmax.
//! * [`SwapHillClimb`] — drop-one/add-one local search seeded from lazy
//!   greedy, enabled by swap probes ([`pinum_core::Probe::Swap`]), which
//!   the delta kernel prices over the merged affected lists. Escapes the
//!   one-directional greedy's local optima (e.g. a narrow index picked
//!   early whose slot a later covering index serves better).
//! * [`Anneal`] — deterministic seeded simulated annealing over
//!   add/drop/swap moves, accepting uphill moves with a cooling
//!   Metropolis rule. Seeded from lazy greedy and returning the best
//!   selection ever visited, so it can never end worse than its seed.
//!
//! Each strategy prices its moves in batches
//! ([`WorkloadModel::price_delta_batch`]) on the caller's thread: lazy
//! greedy in waves of 1→32 heap tops, eager greedy one frontier per
//! round, the swap climb one neighbourhood per round, annealing in blocks
//! of 16 moves. The batch shapes fix the probe accounting, so they are
//! part of each strategy's output. A move the strategy accepts is
//! re-derived exactly, on the probe it ranked, with
//! [`WorkloadModel::price_probe_into`] — the same kernel body, one probe,
//! unmasked — and its changed queries are spliced into the running state.
//!
//! The naive closure-driven `greedy_select` in [`crate::greedy`] is the
//! search oracle: the equivalence tests require [`EagerGreedy`] to
//! reproduce it bit for bit over the same cached models.

mod anneal;
mod greedy;
mod swap;

pub use anneal::Anneal;
pub use greedy::{EagerGreedy, LazyGreedy};
pub use swap::SwapHillClimb;

use crate::greedy::{GreedyOptions, GreedyResult};
use pinum_core::{CandidatePool, PricedWorkload, Selection, WorkloadModel};

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

/// One search policy over the incremental pricing substrate.
///
/// Implementations must be deterministic: the same pool, model, and
/// options yield the same [`GreedyResult`] on every run (randomized
/// strategies carry their own seed).
pub trait SearchStrategy {
    /// Stable human-readable name (used in experiment tables and JSON).
    fn name(&self) -> &'static str;

    /// Runs the search from scratch (an empty warm set), returning picks,
    /// final selection, cost trajectory, and probe accounting.
    fn search(
        &self,
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
    ) -> GreedyResult {
        self.search_warm(pool, model, opts, &Selection::empty(pool.len()))
    }

    /// Runs the search **warm-started** from a previous selection instead
    /// of from empty — the online re-advising entry point. `warm` members
    /// are adopted in ascending id order while they fit the budget
    /// (deterministic truncation when the budget shrank), then the
    /// strategy continues from there: the greedy family keeps adding,
    /// swap/anneal can also drop or exchange stale warm picks. A search
    /// warm-started from an empty selection is exactly [`Self::search`].
    fn search_warm(
        &self,
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
        warm: &Selection,
    ) -> GreedyResult {
        self.search_scoped(pool, model, opts, warm, &SearchScope::all())
    }

    /// [`Self::search_warm`] under a [`SearchScope`]: addition probes are
    /// restricted to the scope's mask and the seed pricing reuses the
    /// scope's carried warm state when valid. With [`SearchScope::all`]
    /// this **is** `search_warm`, bit for bit — scoping only ever removes
    /// probes. The required method every strategy implements.
    fn search_scoped(
        &self,
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
        warm: &Selection,
        scope: &SearchScope<'_>,
    ) -> GreedyResult;
}

/// Adopts `warm` members in ascending id order while they fit the budget.
/// Returns the seeded selection, its members in adoption order, and its
/// total size — the shared warm-start preamble of every strategy.
pub(crate) fn seed_within_budget(
    pool: &CandidatePool,
    opts: &GreedyOptions,
    warm: &Selection,
) -> (Selection, Vec<usize>, u64) {
    let mut selection = Selection::empty(pool.len());
    let mut picked = Vec::new();
    let mut used_bytes = 0u64;
    for id in warm.ids() {
        let size = pool.index(id).size().total_bytes();
        if used_bytes + size > opts.budget_bytes {
            continue;
        }
        selection.insert(id);
        picked.push(id);
        used_bytes += size;
    }
    (selection, picked, used_bytes)
}

/// Splices a delta's `changed` list into a [`PricedWorkload`] through its
/// sum tree, turning an accepted move into an O(changed·log n) state
/// update instead of an O(workload) full re-pricing. The spliced tree
/// root lands bit-identical to the `total` the delta reported (same
/// leaves, same fixed tree shape); callers re-assert the whole state
/// against `price_full` in debug builds.
pub(crate) fn apply_changed(state: &mut PricedWorkload, changed: &[(u32, f64)], total: f64) {
    state.apply_changed(changed);
    debug_assert_eq!(
        state.total().to_bits(),
        total.to_bits(),
        "spliced sum-tree total diverged from the delta's overlaid total"
    );
}

/// The seed pricing every strategy starts from. When the scope carries
/// the warm selection's exact priced state *and* the budget adopted the
/// warm set untruncated, the carried state is cloned — zero re-pricing —
/// and nothing is added to the probe accounting. Otherwise the seeded
/// selection is fully priced, with the classic accounting (one
/// evaluation, `query_count` re-pricings, one full re-pricing).
pub(crate) fn seed_state(
    model: &WorkloadModel,
    warm: &Selection,
    seeded: &Selection,
    scope: &SearchScope<'_>,
    evaluations: &mut usize,
    queries_repriced: &mut usize,
    full_repricings: &mut usize,
) -> PricedWorkload {
    match scope.warm_state {
        Some(state) if seeded.ids().eq(warm.ids()) => {
            debug_assert_state_matches(model, seeded, state);
            state.clone()
        }
        _ => {
            *evaluations += 1;
            *queries_repriced += model.query_count();
            *full_repricings += 1;
            model.price_full(seeded)
        }
    }
}

/// Sampled (`PINUM_ASSERT_SAMPLE`) debug re-check that an incrementally
/// maintained [`PricedWorkload`] still equals a fresh full re-pricing —
/// the strategy-side leg of the session's bit-identity discipline
/// (shared rule: [`PricedWorkload::debug_assert_bit_identical_to_full`]).
pub(crate) fn debug_assert_state_matches(
    model: &WorkloadModel,
    selection: &Selection,
    state: &PricedWorkload,
) {
    state.debug_assert_bit_identical_to_full(model, selection);
}

/// Strategy selector for [`crate::tool::AdvisorOptions`] — a plain enum so
/// advisor options stay `Copy`.
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
    /// Instantiates the strategy with its default knobs.
    pub fn build(self) -> Box<dyn SearchStrategy> {
        match self {
            Self::LazyGreedy => Box::new(LazyGreedy),
            Self::EagerGreedy => Box::new(EagerGreedy),
            Self::SwapHillClimb => Box::new(SwapHillClimb::default()),
            Self::Anneal { seed } => Box::new(Anneal::with_seed(seed)),
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

    const ALL_KINDS: [StrategyKind; 4] = [
        StrategyKind::LazyGreedy,
        StrategyKind::EagerGreedy,
        StrategyKind::SwapHillClimb,
        StrategyKind::Anneal { seed: 7 },
    ];

    #[test]
    fn warm_start_from_empty_equals_cold_search() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: 256 << 20,
            benefit_per_byte: false,
        };
        for kind in ALL_KINDS {
            let strategy = kind.build();
            let cold = strategy.search(&pool, &model, &opts);
            let warm = strategy.search_warm(&pool, &model, &opts, &Selection::empty(pool.len()));
            assert_eq!(cold.picked, warm.picked, "{}", strategy.name());
            assert_eq!(
                cold.cost_trajectory,
                warm.cost_trajectory,
                "{}",
                strategy.name()
            );
            assert_eq!(cold.evaluations, warm.evaluations, "{}", strategy.name());
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
            let strategy = kind.build();
            let cold = strategy.search(&pool, &model, &opts);
            let warm = strategy.search_warm(&pool, &model, &opts, &cold.selection);
            let c = *cold.cost_trajectory.last().unwrap();
            let w = *warm.cost_trajectory.last().unwrap();
            assert!(
                w <= c * (1.0 + 1e-12),
                "{}: warm restart regressed {w} vs {c}",
                strategy.name()
            );
            assert!(warm.total_bytes <= opts.budget_bytes);
            // Warm restarts get going from the seed, not from scratch: the
            // greedy family re-prices once and finds nothing new to add.
            if matches!(kind, StrategyKind::LazyGreedy | StrategyKind::EagerGreedy) {
                assert_eq!(warm.selection, cold.selection, "{}", strategy.name());
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
        let cold = LazyGreedy.search(&pool, &model, &generous);
        assert!(cold.total_bytes > 0);
        // Re-advise under a budget smaller than the warm set itself.
        let tight = GreedyOptions {
            budget_bytes: cold.total_bytes / 2,
            benefit_per_byte: false,
        };
        for kind in ALL_KINDS {
            let strategy = kind.build();
            let warm = strategy.search_warm(&pool, &model, &tight, &cold.selection);
            assert!(
                warm.total_bytes <= tight.budget_bytes,
                "{} blew the shrunken budget",
                strategy.name()
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
            let mut qs: Vec<u32> = cands
                .iter()
                .flat_map(|&c| model.affected(c))
                .copied()
                .collect();
            qs.sort_unstable();
            qs.dedup();
            qs.len()
        };
        // Unscoped eager greedy: the seed pricing, then every round probes
        // every non-member and re-derives the pick it commits.
        let eager = EagerGreedy.search(&pool, &model, &opts);
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
        let seed = LazyGreedy.search(&pool, &model, &opts);
        let swap = SwapHillClimb { max_rounds: 1 }.search(&pool, &model, &opts);
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
            let strategy = kind.build();
            let r = strategy.search(&pool, &model, &opts);
            assert!(
                r.total_bytes <= opts.budget_bytes,
                "{} blew the budget",
                strategy.name()
            );
            assert_eq!(
                r.selection.len(),
                r.picked.len(),
                "{} picked/selection mismatch",
                strategy.name()
            );
            let last = *r.cost_trajectory.last().unwrap();
            let first = r.cost_trajectory[0];
            assert!(
                last <= first,
                "{} ended worse than it started",
                strategy.name()
            );
        }
    }
}
