//! # Persistent pricing sessions
//!
//! The paper's economics — one keep-all optimizer call makes pricing any
//! configuration a "simple numerical calculation" — only pay off online if
//! the priced state is *kept*. Before this module, every consumer of the
//! streaming [`WorkloadModel`] owned its pricing ad hoc: the online daemon
//! re-priced its whole window from scratch at every re-advise (monitor
//! reset + search seed), throwing away per-query costs that every mutation
//! since the last re-advise had left 99 % intact.
//!
//! A [`PricingSession`] inverts that ownership. It bundles the three
//! pieces of online pricing state — the streaming [`WorkloadModel`], the
//! current [`Selection`], and a live [`PricedWorkload`] — behind one
//! invariant:
//!
//! > `state` is **bit-for-bit identical** to
//! > `model.price_full(&selection)` after every public method returns.
//!
//! and maintains it by *splicing*, never rebuilding:
//!
//! * [`PricingSession::admit_batch`] splices a run of newcomers into the
//!   model (O(their access arms)), prices **only the newcomers** under
//!   the current selection, and appends their contributions as new
//!   leaves of the state's pairwise sum tree — appending (and the
//!   occasional exact zero-padded capacity growth) never changes the
//!   bits of the total, however a stream is cut into runs;
//! * [`PricingSession::evict_query`] zeroes the tombstone's leaf, which
//!   re-totals the O(log n) tree path above it — no re-pricing, no
//!   O(window) re-sum;
//! * [`PricingSession::reweight_query`] re-prices **one** query and
//!   updates its leaf the same way;
//! * [`PricingSession::compact`] drops tombstone entries alongside the
//!   model's slots and rebuilds the tree over the survivors (live order
//!   is preserved, so the total is the fresh build's total);
//! * [`PricingSession::install`] adopts a search result's final selection
//!   *and its final priced state* — produced move-by-move from the same
//!   delta splices ([`WorkloadModel::commit_probe_on`], debug-asserted
//!   equal to a full re-pricing) — so a re-advise whose search found
//!   nothing new performs **zero** full re-pricings end to end.
//!
//! [`PricingSession::full_repricings`] counts every `price_full` the
//! session (or a search it fed) did perform; `pinum-bench`'s
//! `scoped_readvise` acceptance test gates that counter at 0 across
//! steady-state re-advises. The session's own invariant is
//! `debug_assert`ed against a fresh `price_full` after every mutation,
//! sampled by [`crate::sampling::should_assert`] (`PINUM_ASSERT_SAMPLE`).

use crate::access_costs::AccessCostCatalog;
use crate::cache::PlanCache;
use crate::candidates::Selection;
use crate::workload_model::{PricedWorkload, WorkloadModel};

/// Persistent pricing state carried across re-advises. See module docs.
#[derive(Debug, Clone)]
pub struct PricingSession {
    model: WorkloadModel,
    selection: Selection,
    /// Live priced state of `selection` over `model` — the invariant is
    /// that this equals `model.price_full(&selection)` bit for bit.
    state: PricedWorkload,
    /// Full workload re-pricings performed since the session started
    /// (by the session itself or reported by searches it fed).
    full_repricings: usize,
}

impl PricingSession {
    /// An empty session over a candidate pool: empty model, empty
    /// selection, zero-cost priced state.
    pub fn new(pool_size: usize) -> Self {
        let model = WorkloadModel::build(pool_size, std::iter::empty());
        let selection = Selection::empty(pool_size);
        let state = model.price_full(&selection);
        Self {
            model,
            selection,
            state,
            full_repricings: 0,
        }
    }

    /// Reconstructs a session bit-exactly from exported state — the
    /// warm-restart path. Nothing is re-priced: the sum tree is rebuilt
    /// from the exported per-query costs
    /// ([`PricedWorkload::from_costs`] is a pure function of them, so the
    /// total's bits are exactly the exported session's), and
    /// `full_repricings` resumes at its exported value. The invariant
    /// `state == model.price_full(&selection)` is the *caller's* claim
    /// about the costs; it is debug-asserted (sampled) like every other
    /// splice, and a restored session that lies here fails the same
    /// assert every subsequent mutation would. Costs no pricing produces
    /// are refused outright, in O(window) with no re-pricing: a live
    /// query's cost is `weight × price`, so ≥ 0 or `+∞`, and a
    /// tombstone's is exactly `+0.0`.
    pub fn restore(
        model: WorkloadModel,
        selection: Selection,
        per_query: Vec<f64>,
        full_repricings: usize,
    ) -> Result<Self, &'static str> {
        if per_query.len() != model.query_count() {
            return Err("per-query cost vector sized for a different model");
        }
        if selection.words().len() != model.pool_size().div_ceil(64) {
            return Err("selection sized for a different pool");
        }
        for (q, &cost) in per_query.iter().enumerate() {
            if model.is_live(q) && (cost.is_nan() || cost < 0.0) {
                return Err("live query cost NaN or negative");
            }
            if !model.is_live(q) && cost.to_bits() != 0 {
                return Err("tombstone query cost not zero");
            }
        }
        let state = PricedWorkload::from_costs(per_query);
        let session = Self {
            model,
            selection,
            state,
            full_repricings,
        };
        session.debug_assert_state_matches_full();
        Ok(session)
    }

    pub fn model(&self) -> &WorkloadModel {
        &self.model
    }

    pub fn selection(&self) -> &Selection {
        &self.selection
    }

    /// The live priced state (exact `price_full` of the current
    /// selection, maintained by splicing).
    pub fn state(&self) -> &PricedWorkload {
        &self.state
    }

    /// The exact priced cost of the current selection over the live
    /// workload — read straight from the spliced state, no re-pricing.
    pub fn total(&self) -> f64 {
        self.state.total()
    }

    /// Full workload re-pricings since the session started.
    pub fn full_repricings(&self) -> usize {
        self.full_repricings
    }

    /// One query's weighted contribution under the current selection
    /// (0.0 for tombstones) — the splice unit of every maintenance path.
    fn contribution(&self, qid: usize) -> f64 {
        if !self.model.is_live(qid) {
            return 0.0;
        }
        self.model.weight(qid) * self.model.price_query(qid, &self.selection, None)
    }

    /// Splices a run of arriving `(cache, access, weight)` queries with
    /// one model maintenance pass ([`WorkloadModel::admit_batch`]), one
    /// single-query pricing per newcomer, and one sum-tree extension
    /// ([`PricedWorkload::extend_query_costs`] — at most one capacity
    /// rebuild). Returns the first new query id; the run occupies
    /// `first..first + queries.len()`.
    ///
    /// How a stream is cut into runs changes no bit: pricing a newcomer
    /// reads only its own packed arms, so later members' presence cannot
    /// change its bits, and the tree extension is exact.
    pub fn admit_batch(&mut self, queries: &[(&PlanCache, &AccessCostCatalog, f64)]) -> usize {
        let first = self.model.admit_batch(queries);
        debug_assert_eq!(self.state.per_query().len(), first);
        let costs: Vec<f64> = (first..first + queries.len())
            .map(|qid| self.contribution(qid))
            .collect();
        self.state.extend_query_costs(&costs);
        self.debug_assert_state_matches_full();
        first
    }

    /// Retracts a live query: its priced contribution drops to exactly
    /// 0.0 (what a tombstone prices to), re-totaling only the tree path
    /// above its leaf — O(log n) float additions, no re-pricing.
    pub fn evict_query(&mut self, qid: usize) {
        self.model.evict_query(qid);
        self.state.set_query_cost(qid, 0.0);
        self.debug_assert_state_matches_full();
    }

    /// Changes one live query's weight, re-pricing only that query and
    /// splicing its new contribution into the sum tree — one
    /// single-query pricing plus O(log n) tree updates.
    pub fn reweight_query(&mut self, qid: usize, weight: f64) {
        self.model.reweight_query(qid, weight);
        let contribution = self.contribution(qid);
        self.state.set_query_cost(qid, contribution);
        self.debug_assert_state_matches_full();
    }

    /// Drops tombstone slots from the model *and* the priced state,
    /// returning the old→new id mapping (`u32::MAX` for dead slots).
    /// Live entries keep their relative order; the sum tree is rebuilt
    /// over the survivors, so the total is bit-identical to the fresh
    /// build's (tree shape is a function of the live count alone).
    pub fn compact(&mut self) -> Vec<u32> {
        let remap = self.model.compact();
        let mut per_query = vec![0.0; self.model.query_count()];
        for (old, &new) in remap.iter().enumerate() {
            if new != u32::MAX {
                per_query[new as usize] = self.state.per_query()[old];
            }
        }
        self.state = PricedWorkload::from_costs(per_query);
        self.debug_assert_state_matches_full();
        remap
    }

    /// Adopts a search outcome: the new selection and its exact final
    /// priced state (`searched_fulls` is the number of full re-pricings
    /// the search reported spending).
    pub fn install(&mut self, selection: Selection, state: PricedWorkload, searched_fulls: usize) {
        debug_assert_eq!(
            state.per_query().len(),
            self.model.query_count(),
            "installed state sized for a different model"
        );
        self.full_repricings += searched_fulls;
        self.selection = selection;
        self.state = state;
        self.debug_assert_state_matches_full();
    }

    /// The session invariant, sampled via `PINUM_ASSERT_SAMPLE`:
    /// `state == model.price_full(&selection)` bit for bit.
    fn debug_assert_state_matches_full(&self) {
        self.state
            .debug_assert_bit_identical_to_full(&self.model, &self.selection);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_costs::collect_pinum;
    use crate::builder::{build_cache_pinum, BuilderOptions};
    use crate::candidates::CandidatePool;
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

    /// The session's spliced state vs a fresh build + price_full over the
    /// same live queries and weights.
    fn assert_matches_fresh(
        session: &PricingSession,
        models: &[(PlanCache, AccessCostCatalog)],
        live: &[(usize, f64)], // (model index, weight) in admission order
        pool_size: usize,
    ) {
        let mut fresh = WorkloadModel::build(
            pool_size,
            live.iter().map(|&(i, _)| (&models[i].0, &models[i].1)),
        );
        for (slot, &(_, w)) in live.iter().enumerate() {
            if w != 1.0 {
                fresh.reweight_query(slot, w);
            }
        }
        let full = fresh.price_full(session.selection());
        assert_eq!(
            full.total().to_bits(),
            session.total().to_bits(),
            "session total diverged from fresh build"
        );
    }

    #[test]
    fn splices_stay_bit_identical_to_fresh_pricing() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut session = PricingSession::new(pool.len());
        assert_eq!(session.full_repricings(), 0);

        let q0 = session.admit_batch(&[(&models[0].0, &models[0].1, 1.0)]);
        let q1 = session.admit_batch(&[(&models[1].0, &models[1].1, 2.5)]);
        assert_matches_fresh(&session, &models, &[(0, 1.0), (1, 2.5)], pool.len());

        let selection = Selection::from_ids(pool.len(), &[0, 3]);
        let state = session.model().price_full(&selection);
        session.install(selection, state, 1);
        assert_eq!(
            session.full_repricings(),
            1,
            "install counts the search's re-pricings"
        );
        assert_matches_fresh(&session, &models, &[(0, 1.0), (1, 2.5)], pool.len());

        session.reweight_query(q1, 0.75);
        assert_matches_fresh(&session, &models, &[(0, 1.0), (1, 0.75)], pool.len());

        session.evict_query(q0);
        let remap = session.compact();
        assert_eq!(remap, vec![u32::MAX, 0]);
        assert_matches_fresh(&session, &models, &[(1, 0.75)], pool.len());
        assert_eq!(session.full_repricings(), 1, "splices never re-price fully");
    }

    #[test]
    fn install_with_exact_state_skips_the_repricing() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut session = PricingSession::new(pool.len());
        session.admit_batch(&[
            (&models[0].0, &models[0].1, 1.0),
            (&models[1].0, &models[1].1, 1.0),
        ]);
        let selection = Selection::from_ids(pool.len(), &[1]);
        let exact = session.model().price_full(&selection);
        session.install(selection.clone(), exact.clone(), 0);
        assert_eq!(session.full_repricings(), 0);
        assert_eq!(session.total().to_bits(), exact.total().to_bits());
        assert_eq!(session.selection(), &selection);
    }

    #[test]
    fn restore_is_bit_exact_and_counts_no_repricing() {
        let (cat, queries, pool) = setup();
        let models = build_models(&cat, &queries, &pool);
        let mut session = PricingSession::new(pool.len());
        session.admit_batch(&[
            (&models[0].0, &models[0].1, 1.0),
            (&models[1].0, &models[1].1, 2.5),
        ]);
        let selection = Selection::from_ids(pool.len(), &[0, 3]);
        let state = session.model().price_full(&selection);
        session.install(selection, state, 1);

        let model = crate::workload_model::WorkloadModel::from_parts(
            pool.len(),
            session.model().to_parts(),
        )
        .expect("model parts roundtrip");
        let selection = Selection::from_words(pool.len(), session.selection().words().to_vec())
            .expect("selection roundtrip");
        let per_query = session.state().per_query().to_vec();
        let restored =
            PricingSession::restore(model, selection, per_query, session.full_repricings())
                .expect("restore");
        assert_eq!(
            restored.total().to_bits(),
            session.total().to_bits(),
            "restored total diverged"
        );
        assert_eq!(restored.state().per_query(), session.state().per_query());
        assert_eq!(restored.full_repricings(), session.full_repricings());
        assert_eq!(restored.selection(), session.selection());
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let session = PricingSession::new(70);
        let model =
            crate::workload_model::WorkloadModel::from_parts(70, session.model().to_parts())
                .expect("parts");
        assert!(PricingSession::restore(
            model.clone(),
            Selection::empty(70),
            vec![0.0], // one cost, zero queries
            0,
        )
        .is_err());
        assert!(PricingSession::restore(
            model,
            Selection::empty(5), // wrong pool width
            Vec::new(),
            0,
        )
        .is_err());
    }

    #[test]
    fn empty_session_prices_to_zero() {
        let session = PricingSession::new(4);
        assert_eq!(session.total(), 0.0);
        assert_eq!(session.state().per_query().len(), 0);
        assert!(session.selection().is_empty());
    }
}
