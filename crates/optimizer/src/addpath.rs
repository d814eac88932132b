//! `add_path`: path-list maintenance with pruning.
//!
//! * [`PruneMode::Standard`] mirrors PostgreSQL: a path survives unless an
//!   existing path is at least as good on *total cost*, *startup cost* and
//!   *output ordering*.
//! * [`PruneMode::KeepIoc`] is the PINUM modification (§V-D): one optimal
//!   plan is retained per *(leaf interesting-order combination, output
//!   ordering)*, with the paper's subset-cost rule — "If plans A and B
//!   provide interesting orders in set SA and SB, where SA ⊆ SB and
//!   Cost(SA) < Cost(SB), then we remove Plan B" — applied as a sweep when
//!   a join relation is complete ([`PathList::subset_cost_sweep`]). The
//!   split keeps inserts O(1) (hash-keyed) while the sweep "reduces the
//!   search space of the join planner, while preserving all useful plans"
//!   — useful *at the build configuration's access costs*.
//!
//! Keeping only the cheapest *total* per key in KeepIoc mode is lossless
//! for final plan totals *at the build configuration's access costs*:
//! every parent operator's total cost in this cost model is a function of
//! child totals only (startup is pass-through bookkeeping), so a path that
//! loses on total can never win later under those costs. Neither rule is
//! lossless once the access costs change. Both compare totals, and two
//! plans whose per-relation access coefficients differ (a nested-loop
//! inner's coefficient is its outer cardinality) can swap order under
//! another configuration. The E3 acceptance test
//! (`crates/bench/tests/acceptance/paper/cost_accuracy.rs`) pins the
//! counter-example: the cache over-estimates star query Q9 by up to
//! +492 %, because the sweep dropped nested-loop plans that win under
//! other configurations; with the sweep off, Q9's maximum is 0.08 %.
//!
//! # The precheck/insert contract
//!
//! A candidate arrives as a [`Path`] *value*: a header of scalars the
//! caller costed and keyed from its children, not yet a node of the arena.
//! [`PathList::add_path`] first asks whether the list wants it — the same
//! tests in the same order as ever: `FUZZ`-slack comparisons, ties go to
//! the path added first, and every refusal counts in
//! [`AddPathStats::rejected`] — and only a survivor is pushed into the
//! [`PathArena`] (`added`, plus `displaced` for what it evicts). A loser
//! costs those comparisons and nothing else: no arena node, no allocation.
//!
//! In KeepIoc mode the key lookup is split so the join planner pays one
//! hash per *(outer, inner) pair* rather than per candidate: every hash,
//! merge and nested-loop candidate of a pair has the same leaf IOC, so
//! [`PathList::chain`] resolves that IOC once to the [`IocChain`] of its
//! slots (one per output ordering, a handful) and
//! [`PathList::add_path_in`] walks it comparing interned ordering ids.

use crate::path::{Path, PathArena, PathId};
use pinum_query::Ioc;
use std::collections::HashMap;

/// Pruning discipline for a [`PathList`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneMode {
    /// PostgreSQL behaviour: cheapest per (startup, total, pathkeys).
    Standard,
    /// PINUM §V-D: retain per leaf interesting-order combination.
    KeepIoc,
}

/// Statistics about pruning decisions (reported in `PlannerStats`).
#[derive(Debug, Default, Clone, Copy)]
pub struct AddPathStats {
    pub added: usize,
    pub rejected: usize,
    pub displaced: usize,
}

/// Ends an [`IocChain`].
const NO_SLOT: u32 = u32::MAX;

/// A set of surviving paths for one relation set.
#[derive(Debug, Default, Clone)]
pub struct PathList {
    ids: Vec<PathId>,
    /// KeepIoc index, first level: leaf IOC → a slot of `ids` holding it.
    first: HashMap<u64, u32>,
    /// KeepIoc index, second level, parallel to `ids`: the next slot with
    /// the same leaf IOC and another ordering ([`NO_SLOT`] ends the chain).
    next: Vec<u32>,
}

/// The slots of one leaf IOC in a KeepIoc list, resolved by
/// [`PathList::chain`]; stays valid while paths are only added.
#[derive(Debug, Clone, Copy)]
pub struct IocChain {
    ioc: Ioc,
    head: u32,
}

impl IocChain {
    /// The leaf IOC this chain belongs to.
    pub fn ioc(&self) -> Ioc {
        self.ioc
    }
}

/// Numeric slack: costs within this relative tolerance count as equal, so
/// tie-breaking is deterministic (first-added wins).
const FUZZ: f64 = 1.0 + 1e-10;

/// Full PostgreSQL-style dominance (Standard mode).
fn dominates_standard(arena: &PathArena, a: &Path, b: &Path) -> bool {
    a.cost.total <= b.cost.total * FUZZ
        && a.cost.startup <= b.cost.startup * FUZZ
        && arena.keys_subsume(a.pathkeys, b.pathkeys)
}

/// Total order on paths by total cost, ties to the older path.
fn by_total(arena: &PathArena, a: PathId, b: PathId) -> std::cmp::Ordering {
    let (ta, tb) = (arena.get(a).cost.total, arena.get(b).cost.total);
    ta.partial_cmp(&tb).unwrap().then(a.0.cmp(&b.0))
}

impl PathList {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn ids(&self) -> &[PathId] {
        &self.ids
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Resolves `ioc` to its chain of slots: the one hash lookup shared by
    /// all candidates with that leaf IOC (always empty in Standard mode,
    /// which keeps no index).
    pub fn chain(&self, ioc: Ioc) -> IocChain {
        let head = self.first.get(&ioc.raw()).copied().unwrap_or(NO_SLOT);
        IocChain { ioc, head }
    }

    /// Considers `candidate` for membership; returns its id if it survived.
    pub fn add_path(
        &mut self,
        arena: &mut PathArena,
        candidate: Path,
        mode: PruneMode,
        stats: &mut AddPathStats,
    ) -> Option<PathId> {
        let mut chain = self.chain(candidate.leaf_ioc);
        self.add_path_in(arena, &mut chain, candidate, mode, stats)
    }

    /// [`Self::add_path`] for a candidate whose leaf IOC `chain` resolved.
    pub fn add_path_in(
        &mut self,
        arena: &mut PathArena,
        chain: &mut IocChain,
        candidate: Path,
        mode: PruneMode,
        stats: &mut AddPathStats,
    ) -> Option<PathId> {
        self.admit(arena, chain, &candidate, None, mode, stats)
    }

    /// Considers a path that already is an arena node (the grouping
    /// planner's finished paths); returns whether it survived.
    pub fn add_existing(
        &mut self,
        arena: &mut PathArena,
        id: PathId,
        mode: PruneMode,
        stats: &mut AddPathStats,
    ) -> bool {
        let candidate = *arena.get(id);
        let mut chain = self.chain(candidate.leaf_ioc);
        self.admit(arena, &mut chain, &candidate, Some(id), mode, stats)
            .is_some()
    }

    /// The precheck, then — for a survivor only — the insert. `node` is the
    /// candidate's arena id if it has one; otherwise it gets one here.
    fn admit(
        &mut self,
        arena: &mut PathArena,
        chain: &mut IocChain,
        candidate: &Path,
        node: Option<PathId>,
        mode: PruneMode,
        stats: &mut AddPathStats,
    ) -> Option<PathId> {
        match mode {
            PruneMode::Standard => {
                for &id in &self.ids {
                    if dominates_standard(arena, arena.get(id), candidate) {
                        stats.rejected += 1;
                        return None;
                    }
                }
                let before = self.ids.len();
                self.ids
                    .retain(|&id| !dominates_standard(arena, candidate, arena.get(id)));
                stats.displaced += before - self.ids.len();
                let id = node.unwrap_or_else(|| arena.add(*candidate));
                self.ids.push(id);
                stats.added += 1;
                Some(id)
            }
            // O(1) retention per (ioc, pathkeys): keep the cheapest total.
            PruneMode::KeepIoc => {
                debug_assert_eq!(chain.ioc, candidate.leaf_ioc);
                let holder = |slot: u32| arena.get(self.ids[slot as usize]);
                let (mut slot, mut tail) = (chain.head, NO_SLOT);
                while slot != NO_SLOT && holder(slot).pathkeys != candidate.pathkeys {
                    (tail, slot) = (slot, self.next[slot as usize]);
                }
                if slot != NO_SLOT {
                    let cheaper = candidate.cost.total * FUZZ < holder(slot).cost.total;
                    if !cheaper {
                        stats.rejected += 1;
                        return None;
                    }
                }
                let id = node.unwrap_or_else(|| arena.add(*candidate));
                if slot != NO_SLOT {
                    self.ids[slot as usize] = id;
                    stats.displaced += 1;
                } else {
                    let new = self.ids.len() as u32;
                    self.ids.push(id);
                    self.next.push(NO_SLOT);
                    if tail == NO_SLOT {
                        self.first.insert(chain.ioc.raw(), new);
                        chain.head = new;
                    } else {
                        self.next[tail as usize] = new;
                    }
                }
                stats.added += 1;
                Some(id)
            }
        }
    }

    /// The §V-D subset-cost pruning pass: drops every path for which a
    /// cheaper path with a subset of its interesting-order requirements
    /// (and an output ordering subsuming its own) exists. Called once per
    /// completed join relation in KeepIoc mode.
    pub fn subset_cost_sweep(&mut self, arena: &PathArena, stats: &mut AddPathStats) {
        if self.ids.len() <= 1 {
            return;
        }
        let mut order = std::mem::take(&mut self.ids);
        order.sort_by(|a, b| by_total(arena, *a, *b));
        let mut kept: Vec<PathId> = Vec::with_capacity(order.len());
        'candidates: for id in order {
            let p = arena.get(id);
            for &k in &kept {
                let a = arena.get(k);
                // Kept paths are no costlier (total) than p by
                // construction; like PostgreSQL's add_path, a better
                // startup cost or stronger ordering still saves p.
                if a.leaf_ioc.is_subset_of(p.leaf_ioc)
                    && arena.keys_subsume(a.pathkeys, p.pathkeys)
                    && a.cost.startup <= p.cost.startup * FUZZ
                {
                    stats.rejected += 1;
                    continue 'candidates;
                }
            }
            kept.push(id);
        }
        self.ids = kept;
        // Rebuild the index so later inserts (e.g. the grouping planner's
        // finished list) stay consistent: each slot chains to the previous
        // one of its IOC.
        self.first.clear();
        self.next.clear();
        for (slot, &id) in self.ids.iter().enumerate() {
            let previous = self.first.insert(arena.get(id).leaf_ioc.raw(), slot as u32);
            self.next.push(previous.unwrap_or(NO_SLOT));
        }
    }

    /// The cheapest-total path.
    pub fn cheapest_total(&self, arena: &PathArena) -> Option<PathId> {
        (self.ids.iter().copied()).min_by(|a, b| by_total(arena, *a, *b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{KeysId, PathKind};
    use crate::preprocess::EcId;
    use crate::relset::RelSet;
    use pinum_cost::Cost;

    fn mk(total: f64, startup: f64, keys: KeysId, ioc: Ioc) -> Path {
        Path {
            kind: PathKind::SeqScan { rel: 0 },
            rels: RelSet::single(0),
            rows: 1.0,
            cost: Cost::new(startup, total),
            rescan: Cost::new(startup, total),
            pathkeys: keys,
            leaf_ioc: ioc,
            c0: 0.0,
        }
    }

    #[test]
    fn standard_keeps_cheapest_per_order() {
        let mut arena = PathArena::new();
        let k0 = arena.intern(&[EcId(0)]);
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        let a = list.add_path(
            &mut arena,
            mk(10.0, 0.0, KeysId::NONE, Ioc::NONE),
            PruneMode::Standard,
            &mut st,
        );
        assert!(a.is_some());
        // More expensive unordered path: rejected.
        assert!(list
            .add_path(
                &mut arena,
                mk(20.0, 0.0, KeysId::NONE, Ioc::NONE),
                PruneMode::Standard,
                &mut st
            )
            .is_none());
        // More expensive but ordered: kept.
        assert!(list
            .add_path(
                &mut arena,
                mk(20.0, 0.0, k0, Ioc::NONE),
                PruneMode::Standard,
                &mut st
            )
            .is_some());
        // Cheaper ordered path displaces both (it subsumes unordered too).
        assert!(list
            .add_path(
                &mut arena,
                mk(5.0, 0.0, k0, Ioc::NONE),
                PruneMode::Standard,
                &mut st
            )
            .is_some());
        assert_eq!(list.len(), 1);
        assert_eq!(st.displaced, 2);
    }

    #[test]
    fn startup_cost_is_a_separate_dimension_in_standard() {
        let mut arena = PathArena::new();
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        list.add_path(
            &mut arena,
            mk(10.0, 5.0, KeysId::NONE, Ioc::NONE),
            PruneMode::Standard,
            &mut st,
        );
        // Worse total but better startup: kept.
        assert!(list
            .add_path(
                &mut arena,
                mk(12.0, 0.0, KeysId::NONE, Ioc::NONE),
                PruneMode::Standard,
                &mut st
            )
            .is_some());
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn keepioc_retains_per_combination() {
        let mut arena = PathArena::new();
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        let phi = Ioc::NONE;
        let a = Ioc::NONE.with_order(0, 0);
        list.add_path(
            &mut arena,
            mk(10.0, 0.0, KeysId::NONE, phi),
            PruneMode::KeepIoc,
            &mut st,
        );
        // A cheaper plan requiring order A coexists with the Φ plan.
        assert!(list
            .add_path(
                &mut arena,
                mk(5.0, 0.0, KeysId::NONE, a),
                PruneMode::KeepIoc,
                &mut st
            )
            .is_some());
        assert_eq!(list.len(), 2);
        // Same (ioc, pathkeys) key, worse total: rejected immediately.
        assert!(list
            .add_path(
                &mut arena,
                mk(7.0, 0.0, KeysId::NONE, a),
                PruneMode::KeepIoc,
                &mut st
            )
            .is_none());
        // Same key, better total: replaces in place.
        assert!(list
            .add_path(
                &mut arena,
                mk(3.0, 0.0, KeysId::NONE, a),
                PruneMode::KeepIoc,
                &mut st
            )
            .is_some());
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn sweep_applies_subset_cost_rule() {
        // Paper §V-D: SA ⊆ SB and cost(A) < cost(B) ⇒ drop B.
        let mut arena = PathArena::new();
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        let a = Ioc::NONE.with_order(0, 0);
        let ab = a.with_order(1, 0);
        list.add_path(
            &mut arena,
            mk(10.0, 0.0, KeysId::NONE, a),
            PruneMode::KeepIoc,
            &mut st,
        );
        // Requires more orders *and* costs more: survives insert …
        assert!(list
            .add_path(
                &mut arena,
                mk(15.0, 0.0, KeysId::NONE, ab),
                PruneMode::KeepIoc,
                &mut st
            )
            .is_some());
        assert_eq!(list.len(), 2);
        // … but the sweep removes it.
        list.subset_cost_sweep(&arena, &mut st);
        assert_eq!(list.len(), 1);
        // A cheaper superset-requirement plan survives the sweep, along
        // with the subset plan.
        list.add_path(
            &mut arena,
            mk(5.0, 0.0, KeysId::NONE, ab),
            PruneMode::KeepIoc,
            &mut st,
        );
        list.subset_cost_sweep(&arena, &mut st);
        assert_eq!(list.len(), 2);
    }

    #[test]
    fn sweep_respects_pathkey_subsumption() {
        let mut arena = PathArena::new();
        let (k1, k12) = (arena.intern(&[EcId(1)]), arena.intern(&[EcId(1), EcId(2)]));
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        let phi = Ioc::NONE;
        // Cheap unordered plan + costlier ordered plan with same (empty)
        // requirements: the ordered one must survive (its ordering may be
        // needed upstream).
        list.add_path(
            &mut arena,
            mk(10.0, 0.0, KeysId::NONE, phi),
            PruneMode::KeepIoc,
            &mut st,
        );
        list.add_path(
            &mut arena,
            mk(15.0, 0.0, k1, phi),
            PruneMode::KeepIoc,
            &mut st,
        );
        list.subset_cost_sweep(&arena, &mut st);
        assert_eq!(list.len(), 2);
        // But a costlier *less-ordered* plan is swept: [1,2] at 12 beats
        // [1] at 20.
        list.add_path(
            &mut arena,
            mk(12.0, 0.0, k12, phi),
            PruneMode::KeepIoc,
            &mut st,
        );
        list.add_path(
            &mut arena,
            mk(20.0, 0.0, k1, phi),
            PruneMode::KeepIoc,
            &mut st,
        );
        // The 15-cost [1] plan is now dominated by the 12-cost [1,2] plan.
        list.subset_cost_sweep(&arena, &mut st);
        let totals: Vec<f64> = list
            .ids()
            .iter()
            .map(|&i| arena.get(i).cost.total)
            .collect();
        assert!(totals.contains(&10.0));
        assert!(totals.contains(&12.0));
        assert!(!totals.contains(&15.0));
        assert!(!totals.contains(&20.0));
    }

    #[test]
    fn cheapest_queries() {
        let mut arena = PathArena::new();
        let k3 = arena.intern(&[EcId(3)]);
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        list.add_path(
            &mut arena,
            mk(10.0, 0.0, KeysId::NONE, Ioc::NONE),
            PruneMode::Standard,
            &mut st,
        );
        let ordered = list
            .add_path(
                &mut arena,
                mk(20.0, 0.0, k3, Ioc::NONE),
                PruneMode::Standard,
                &mut st,
            )
            .unwrap();
        let cheapest = list.cheapest_total(&arena).unwrap();
        assert_eq!(arena.get(cheapest).cost.total, 10.0);
        // The dearer path survives beside it: it provides an order.
        assert!(list.ids().contains(&ordered));
    }

    #[test]
    fn a_loser_never_becomes_an_arena_node() {
        for mode in [PruneMode::Standard, PruneMode::KeepIoc] {
            let mut arena = PathArena::new();
            let mut list = PathList::new();
            let mut st = AddPathStats::default();
            let first = mk(10.0, 0.0, KeysId::NONE, Ioc::NONE);
            assert!(list.add_path(&mut arena, first, mode, &mut st).is_some());
            // Costlier, and a tie within FUZZ: the path added first stays.
            for total in [20.0, 10.0, 10.0 * (1.0 - 1e-12)] {
                let loser = mk(total, 0.0, KeysId::NONE, Ioc::NONE);
                assert!(list.add_path(&mut arena, loser, mode, &mut st).is_none());
            }
            assert_eq!((arena.len(), st.added, st.rejected), (1, 1, 3), "{mode:?}");
        }
    }

    #[test]
    fn one_chain_serves_every_ordering_of_an_ioc() {
        let mut arena = PathArena::new();
        let (k1, k2) = (arena.intern(&[EcId(1)]), arena.intern(&[EcId(2)]));
        let a = Ioc::NONE.with_order(0, 0);
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        // Resolved while the IOC has no path yet; follows the inserts.
        let mut chain = list.chain(a);
        for (total, keys, survives) in [
            (10.0, KeysId::NONE, true),
            (12.0, k1, true),
            (14.0, k2, true),
            (13.0, k1, false),
            (11.0, k1, true), // displaces the 12.0 in place
        ] {
            let added = list.add_path_in(
                &mut arena,
                &mut chain,
                mk(total, 0.0, keys, a),
                PruneMode::KeepIoc,
                &mut st,
            );
            assert_eq!(added.is_some(), survives, "{total} {keys:?}");
        }
        let totals: Vec<f64> = (list.ids().iter())
            .map(|&i| arena.get(i).cost.total)
            .collect();
        assert_eq!(totals, vec![10.0, 11.0, 14.0]);
        assert_eq!((st.added, st.rejected, st.displaced), (4, 1, 1));
        // A sweep rebuilds the index: the same keys are still found.
        list.subset_cost_sweep(&arena, &mut st);
        let again = mk(11.0, 0.0, k1, a);
        assert!(list
            .add_path(&mut arena, again, PruneMode::KeepIoc, &mut st)
            .is_none());
    }

    #[test]
    fn an_existing_node_joins_the_list_without_a_copy() {
        let mut arena = PathArena::new();
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        let cheap = arena.add(mk(5.0, 0.0, KeysId::NONE, Ioc::NONE));
        let dear = arena.add(mk(9.0, 0.0, KeysId::NONE, Ioc::NONE));
        assert!(list.add_existing(&mut arena, cheap, PruneMode::KeepIoc, &mut st));
        assert!(!list.add_existing(&mut arena, dear, PruneMode::KeepIoc, &mut st));
        assert_eq!((list.ids(), arena.len()), (&[cheap][..], 2));
    }
}
