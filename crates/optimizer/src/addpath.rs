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
//! The precheck reads the list alone. Each member carries inline what
//! pruning compares — total, startup, interned ordering, leaf IOC — beside
//! its arena id and its IOC-chain link, so neither a chain walk, a
//! Standard-mode dominance test, the sweep nor [`PathList::cheapest_total`]
//! follows an id into the arena (only orderings are resolved there, in
//! the arena's small table of interned [`KeysId`]s).
//!
//! In KeepIoc mode the key lookup is split so the join planner pays one
//! hash per *(outer, inner) pair* rather than per candidate: every hash,
//! merge and nested-loop candidate of a pair has the same leaf IOC, so
//! [`PathList::chain`] resolves that IOC once to the [`IocChain`] of its
//! slots (one per output ordering, a handful) and
//! [`PathList::add_path_in`] walks it comparing interned ordering ids.
//!
//! # The sweep
//!
//! [`PathList::subset_cost_sweep`] makes the decisions of the plain rule —
//! visit the members by ascending `(total, id)`, drop one if an earlier
//! *kept* member requires a subset of its orders, delivers an ordering
//! subsuming its own and starts no later — without the O(n · kept) pair
//! loop. It sorts strict integer keys (a total ≥ 0 orders as its IEEE
//! bits), then holds bitset rows over the sorted positions: the kept set;
//! per distinct ordering of the list, the positions whose ordering
//! subsumes it (from the table of which of those orderings subsumes
//! which); and per (required relation, nibble), the positions with that
//! nibble. A member's possible dominators are the kept row AND its
//! ordering's row AND, per relation some member requires an order on (at
//! most 16), the OR of that relation's Φ row and the member's own nibble
//! row; only the positions left are startup-checked. For n members, A
//! required relations and K distinct orderings, that is O(n log n) for the
//! sort, O(n · A + K² · ⌈n/64⌉) to build the rows and at most
//! n · ⌈n/64⌉ · (2A + 2) word operations to filter — linear in n up to 64
//! members, where the pair loop is quadratic. Its buffers live in a
//! [`SweepScratch`] the caller owns and reuses, so once they have grown a
//! sweep allocates only to hand its list's growth slack back.

use crate::intmap::IntMap;
use crate::path::{KeysId, Path, PathArena, PathId};
use pinum_query::{Ioc, MAX_RELATIONS};

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

/// Ends an [`IocChain`]; marks an ordering absent from a sweep's table.
const NO_SLOT: u32 = u32::MAX;

/// One path of a [`PathList`]: its arena id, what pruning compares, and
/// its link in the KeepIoc index.
#[derive(Debug, Clone, Copy)]
struct Member {
    total: f64,
    startup: f64,
    ioc: Ioc,
    id: PathId,
    keys: KeysId,
    /// KeepIoc index, second level: the next slot with the same leaf IOC
    /// and another ordering ([`NO_SLOT`] ends the chain).
    next: u32,
}

impl Member {
    fn new(id: PathId, path: &Path) -> Self {
        // `-0.0` is held as `0.0` (equal in every comparison), so the bits
        // of a total ≥ 0 order as the total does.
        let total = if path.cost.total == 0.0 {
            0.0
        } else {
            path.cost.total
        };
        Self {
            total,
            startup: path.cost.startup,
            ioc: path.leaf_ioc,
            id,
            keys: path.pathkeys,
            next: NO_SLOT,
        }
    }

    /// Sort key of the sweep and of [`PathList::cheapest_total`], for a
    /// total checked ≥ 0: by total, ties to the older path.
    fn rank(&self) -> (u64, u32) {
        (self.total.to_bits(), self.id.0)
    }

    /// Panics, naming the path, unless its total is ≥ 0 (and so not NaN).
    fn check_total(&self, arena: &PathArena) {
        assert!(
            self.total >= 0.0,
            "{} over {} has total cost {}: path totals must be ≥ 0",
            arena.describe(self.id),
            arena.get(self.id).rels,
            self.total
        );
    }
}

/// A set of surviving paths for one relation set.
#[derive(Debug, Default, Clone)]
pub struct PathList {
    members: Vec<Member>,
    /// KeepIoc index, first level: leaf IOC → a slot of `members` holding
    /// it.
    first: IntMap<u64, u32>,
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

/// The buffers of [`PathList::subset_cost_sweep`], owned by its caller and
/// reused from sweep to sweep.
#[derive(Debug, Default)]
pub struct SweepScratch {
    /// Bitset rows over the sorted positions, `⌈n/64⌉` words each: kept,
    /// then per ordering its exact and its subsuming row, then per
    /// (required relation, nibble) its row.
    rows: Vec<u64>,
    /// The list's distinct orderings, in first-seen order.
    orderings: Vec<KeysId>,
    /// Interned ordering → its index in `orderings` ([`NO_SLOT`] if not in
    /// the list); reset after every sweep.
    ordering_slot: Vec<u32>,
}

/// Numeric slack: costs within this relative tolerance count as equal, so
/// tie-breaking is deterministic (first-added wins).
const FUZZ: f64 = 1.0 + 1e-10;

/// Full PostgreSQL-style dominance (Standard mode) of `a` over `b`.
fn dominates_standard(arena: &PathArena, a: &Member, b: &Member) -> bool {
    a.total <= b.total * FUZZ && a.startup <= b.startup * FUZZ && arena.keys_subsume(a.keys, b.keys)
}

impl PathList {
    pub fn new() -> Self {
        Self::default()
    }

    /// The members' arena ids, in list order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = PathId> + '_ {
        self.members.iter().map(|m| m.id)
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
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
        // Its id is fixed only if it survives the precheck.
        let mut new = Member::new(node.unwrap_or(PathId(NO_SLOT)), candidate);
        match mode {
            PruneMode::Standard => {
                if (self.members.iter()).any(|m| dominates_standard(arena, m, &new)) {
                    stats.rejected += 1;
                    return None;
                }
                let before = self.members.len();
                self.members.retain(|m| !dominates_standard(arena, &new, m));
                stats.displaced += before - self.members.len();
                new.id = node.unwrap_or_else(|| arena.add(*candidate));
                self.members.push(new);
                stats.added += 1;
                Some(new.id)
            }
            // O(1) retention per (ioc, pathkeys): keep the cheapest total.
            PruneMode::KeepIoc => {
                debug_assert_eq!(chain.ioc, candidate.leaf_ioc);
                let members = &mut self.members;
                let (mut slot, mut tail) = (chain.head, NO_SLOT);
                while slot != NO_SLOT && members[slot as usize].keys != new.keys {
                    (tail, slot) = (slot, members[slot as usize].next);
                }
                if slot != NO_SLOT {
                    let cheaper = new.total * FUZZ < members[slot as usize].total;
                    if !cheaper {
                        stats.rejected += 1;
                        return None;
                    }
                }
                new.id = node.unwrap_or_else(|| arena.add(*candidate));
                if slot != NO_SLOT {
                    let held = &mut members[slot as usize];
                    *held = Member {
                        next: held.next,
                        ..new
                    };
                    stats.displaced += 1;
                } else {
                    let slot = members.len() as u32;
                    members.push(new);
                    if tail == NO_SLOT {
                        self.first.insert(chain.ioc.raw(), slot);
                        chain.head = slot;
                    } else {
                        members[tail as usize].next = slot;
                    }
                }
                stats.added += 1;
                Some(new.id)
            }
        }
    }

    /// The §V-D subset-cost pruning pass: drops every path for which a
    /// cheaper path with a subset of its interesting-order requirements
    /// (and an output ordering subsuming its own) exists. Called once per
    /// completed join relation in KeepIoc mode; see the module doc for how
    /// it decides and what it costs. Panics, naming the path, on a total
    /// that is negative or NaN.
    pub fn subset_cost_sweep(
        &mut self,
        arena: &PathArena,
        scratch: &mut SweepScratch,
        stats: &mut AddPathStats,
    ) {
        let n = self.members.len();
        if n <= 1 {
            return;
        }
        // The relations some member requires an order on (non-zero
        // nibbles of the union), and the distinct orderings.
        let mut required = 0u64;
        scratch.orderings.clear();
        for m in &self.members {
            m.check_total(arena);
            required |= m.ioc.raw();
            let k = m.keys.index();
            if k >= scratch.ordering_slot.len() {
                scratch.ordering_slot.resize(k + 1, NO_SLOT);
            }
            if scratch.ordering_slot[k] == NO_SLOT {
                scratch.ordering_slot[k] = scratch.orderings.len() as u32;
                scratch.orderings.push(m.keys);
            }
        }
        let mut rels = [0u16; MAX_RELATIONS];
        let mut n_rels = 0;
        for rel in 0..MAX_RELATIONS as u16 {
            if Ioc::from_raw(required).nibble(rel) != 0 {
                rels[n_rels] = rel;
                n_rels += 1;
            }
        }
        let rels = &rels[..n_rels];
        self.members.sort_unstable_by_key(Member::rank);
        let sorted = &self.members;

        // Row layout, `w` words per row: kept | per ordering: exact,
        // subsuming | per (required relation, nibble 0..16).
        let (w, n_orderings) = (n.div_ceil(64), scratch.orderings.len());
        let (exact, subsuming) = (|k: usize| (1 + 2 * k) * w, |k: usize| (2 + 2 * k) * w);
        let by_nibble = |r: usize, nibble: u8| (1 + 2 * n_orderings + 16 * r + nibble as usize) * w;
        let rows = &mut scratch.rows;
        rows.clear();
        rows.resize((1 + 2 * n_orderings + 16 * n_rels) * w, 0);
        for (i, m) in sorted.iter().enumerate() {
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            rows[exact(scratch.ordering_slot[m.keys.index()] as usize) + word] |= bit;
            for (r, &rel) in rels.iter().enumerate() {
                rows[by_nibble(r, m.ioc.nibble(rel)) + word] |= bit;
            }
        }
        for (k, &keys) in scratch.orderings.iter().enumerate() {
            for (j, &by) in scratch.orderings.iter().enumerate() {
                if arena.keys_subsume(by, keys) {
                    for word in 0..w {
                        rows[subsuming(k) + word] |= rows[exact(j) + word];
                    }
                }
            }
        }

        // Ascending (total, id): a member is kept unless an earlier kept
        // one requires a subset of its orders, delivers an ordering
        // subsuming its own and starts no later — like PostgreSQL's
        // add_path, a better startup cost or stronger ordering saves it.
        // On each relation a dominator requires Φ or p's own order: the
        // OR of two rows (the same row twice where p requires Φ).
        let mut allowed = [(0, 0); MAX_RELATIONS];
        for (i, p) in sorted.iter().enumerate() {
            let ordering = subsuming(scratch.ordering_slot[p.keys.index()] as usize);
            for (r, &rel) in rels.iter().enumerate() {
                allowed[r] = (by_nibble(r, 0), by_nibble(r, p.ioc.nibble(rel)));
            }
            let allowed = &allowed[..n_rels];
            let dominated = (0..=i / 64).any(|word| {
                let mut bits = rows[word] & rows[ordering + word];
                for &(phi, own) in allowed {
                    bits &= rows[phi + word] | rows[own + word];
                }
                while bits != 0 {
                    let a = word * 64 + bits.trailing_zeros() as usize;
                    if sorted[a].startup <= p.startup * FUZZ {
                        return true;
                    }
                    bits &= bits - 1;
                }
                false
            });
            if dominated {
                stats.rejected += 1;
            } else {
                rows[i / 64] |= 1 << (i % 64);
            }
        }
        for &keys in &scratch.orderings {
            scratch.ordering_slot[keys.index()] = NO_SLOT;
        }
        // The survivors in sweep order; a swept list is final in the DP,
        // so it hands back its growth slack.
        let mut kept = 0;
        for i in 0..n {
            if rows[i / 64] & (1 << (i % 64)) != 0 {
                self.members[kept] = self.members[i];
                kept += 1;
            }
        }
        self.members.truncate(kept);
        self.members.shrink_to_fit();
        // Rebuild the index so later inserts (e.g. the grouping planner's
        // finished list) stay consistent: each slot chains to the previous
        // one of its IOC.
        self.first.clear();
        for (slot, m) in self.members.iter_mut().enumerate() {
            m.next = (self.first.insert(m.ioc.raw(), slot as u32)).unwrap_or(NO_SLOT);
        }
    }

    /// The cheapest-total path, ties to the older one. Panics, naming the
    /// path, on a total that is negative or NaN.
    pub fn cheapest_total(&self, arena: &PathArena) -> Option<PathId> {
        (self.members.iter())
            .inspect(|m| m.check_total(arena))
            .min_by_key(|m| m.rank())
            .map(|m| m.id)
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
        list.subset_cost_sweep(&arena, &mut SweepScratch::default(), &mut st);
        assert_eq!(list.len(), 1);
        // A cheaper superset-requirement plan survives the sweep, along
        // with the subset plan.
        list.add_path(
            &mut arena,
            mk(5.0, 0.0, KeysId::NONE, ab),
            PruneMode::KeepIoc,
            &mut st,
        );
        list.subset_cost_sweep(&arena, &mut SweepScratch::default(), &mut st);
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
        list.subset_cost_sweep(&arena, &mut SweepScratch::default(), &mut st);
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
        list.subset_cost_sweep(&arena, &mut SweepScratch::default(), &mut st);
        let totals: Vec<f64> = list.ids().map(|i| arena.get(i).cost.total).collect();
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
        assert!(list.ids().any(|i| i == ordered));
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
        let totals: Vec<f64> = list.ids().map(|i| arena.get(i).cost.total).collect();
        assert_eq!(totals, vec![10.0, 11.0, 14.0]);
        assert_eq!((st.added, st.rejected, st.displaced), (4, 1, 1));
        // A sweep rebuilds the index: the same keys are still found.
        list.subset_cost_sweep(&arena, &mut SweepScratch::default(), &mut st);
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
        assert_eq!(
            (list.ids().collect::<Vec<_>>(), arena.len()),
            (vec![cheap], 2)
        );
    }

    /// A splitmix64 stream: the test's own randomness, seeded per trial.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// The plain rule the sweep must reproduce: sort by (total, id) through
    /// the arena, then test every path against every path kept so far.
    /// Returns the kept ids in order and the number rejected.
    fn naive_sweep(arena: &PathArena, ids: &[PathId]) -> (Vec<PathId>, usize) {
        let mut order = ids.to_vec();
        order.sort_by(|&a, &b| {
            let (ta, tb) = (arena.get(a).cost.total, arena.get(b).cost.total);
            ta.partial_cmp(&tb).unwrap().then(a.0.cmp(&b.0))
        });
        let (mut kept, mut rejected) = (Vec::<PathId>::new(), 0);
        'candidates: for id in order {
            let p = arena.get(id);
            for &k in &kept {
                let a = arena.get(k);
                if a.leaf_ioc.is_subset_of(p.leaf_ioc)
                    && arena.keys_subsume(a.pathkeys, p.pathkeys)
                    && a.cost.startup <= p.cost.startup * FUZZ
                {
                    rejected += 1;
                    continue 'candidates;
                }
            }
            kept.push(id);
        }
        (kept, rejected)
    }

    /// The index a list over `ids` must hold: each slot chains to the
    /// previous slot of its IOC, and the IOC's entry names its last slot.
    fn expected_chains(arena: &PathArena, ids: &[PathId]) -> (Vec<u32>, Vec<(u64, u32)>) {
        let mut first = std::collections::BTreeMap::new();
        let next = (ids.iter().enumerate())
            .map(|(slot, &id)| {
                let ioc = arena.get(id).leaf_ioc.raw();
                first.insert(ioc, slot as u32).unwrap_or(NO_SLOT)
            })
            .collect();
        (next, first.into_iter().collect())
    }

    /// The list's own index, in the shape of [`expected_chains`]; also
    /// checks each member's inline keys against its arena node.
    fn chains(arena: &PathArena, list: &PathList) -> (Vec<u32>, Vec<(u64, u32)>) {
        for m in &list.members {
            let p = arena.get(m.id);
            // `==`, not bits: a `-0.0` total is held as `0.0`.
            assert_eq!(
                (m.total, m.startup.to_bits(), m.keys, m.ioc),
                (
                    p.cost.total,
                    p.cost.startup.to_bits(),
                    p.pathkeys,
                    p.leaf_ioc
                )
            );
        }
        let mut first: Vec<(u64, u32)> = list.first.iter().map(|(&k, &v)| (k, v)).collect();
        first.sort_unstable();
        (list.members.iter().map(|m| m.next).collect(), first)
    }

    /// One random KeepIoc list: `n` candidates over `rels` relations whose
    /// nibbles run to `max_nibble`, orderings drawn from `orderings`, totals
    /// from `totals`, startups at or below them.
    fn random_list(
        rng: &mut Rng,
        arena: &mut PathArena,
        orderings: &[KeysId],
        n: usize,
        rels: u16,
        max_nibble: u64,
        totals: &[f64],
    ) -> PathList {
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        for _ in 0..n {
            let mut ioc = Ioc::NONE;
            for rel in 0..rels {
                // Mostly Φ, so subsets are common.
                let nibble = rng.below(2 * max_nibble + 1);
                if nibble > 0 && nibble <= max_nibble {
                    ioc = ioc.with_order(rel, nibble as u8 - 1);
                }
            }
            let total = totals[rng.below(totals.len() as u64) as usize];
            let startup = match rng.below(4) {
                0 => total,
                1 => 0.0,
                _ => totals[rng.below(totals.len() as u64) as usize].min(total),
            };
            let keys = orderings[rng.below(orderings.len() as u64) as usize];
            let mut path = mk(total, 0.0, keys, ioc);
            path.cost = Cost { startup, total };
            list.add_path(arena, path, PruneMode::KeepIoc, &mut st);
        }
        list
    }

    #[test]
    fn sweep_matches_the_naive_rule() {
        let tie = 1.0 + 5e-11; // within FUZZ
        let mut widest = [0; 3]; // kept paths, orderings, relations
        for trial in 0..240u64 {
            let mut rng = Rng(trial);
            let mut arena = PathArena::new();
            // Orderings: prefix chains over a few classes, and for some
            // trials more distinct ones than a 64-bit word holds.
            let n_orderings = [1, 3, 8, 80][trial as usize % 4];
            let mut orderings = vec![KeysId::NONE];
            while orderings.len() < n_orderings {
                let len = 1 + rng.below(3) as usize;
                let keys: Vec<EcId> = (0..len).map(|_| EcId(rng.below(6) as u16)).collect();
                for end in 1..=len {
                    let id = arena.intern(&keys[..end]);
                    if !orderings.contains(&id) {
                        orderings.push(id);
                    }
                }
            }
            let (rels, max_nibble) = match trial % 3 {
                0 => (3, 2),
                1 => (6, 4),
                _ => (16, 15),
            };
            let totals: Vec<f64> = match trial % 5 {
                // Few distinct values: many exact ties, broken by id.
                0 => (0..6).map(f64::from).collect(),
                // Ties within FUZZ, and a signed zero.
                1 => vec![-0.0, 0.0, 1.0, tie, 2.0, 2.0 * tie, 2.0 / tie],
                _ => (0..200)
                    .map(|_| rng.below(1_000_000) as f64 / 7.0)
                    .collect(),
            };
            let n = [4, 40, 150, 400][(trial / 4) as usize % 4];
            let mut list = random_list(
                &mut rng, &mut arena, &orderings, n, rels, max_nibble, &totals,
            );
            let before: Vec<PathId> = list.ids().collect();
            let (kept, rejected) = naive_sweep(&arena, &before);
            let mut st = AddPathStats::default();
            let mut scratch = SweepScratch::default();
            list.subset_cost_sweep(&arena, &mut scratch, &mut st);
            let after: Vec<PathId> = list.ids().collect();
            assert_eq!(after, kept, "trial {trial}");
            assert_eq!(st.rejected, rejected, "trial {trial}");
            assert_eq!(chains(&arena, &list), expected_chains(&arena, &kept));
            let cheapest = (before.iter().copied()).min_by(|&a, &b| {
                let (ta, tb) = (arena.get(a).cost.total, arena.get(b).cost.total);
                ta.partial_cmp(&tb).unwrap().then(a.0.cmp(&b.0))
            });
            assert_eq!(list.cheapest_total(&arena), cheapest, "trial {trial}");
            // The scratch is reused: a second sweep keeps everything.
            list.subset_cost_sweep(&arena, &mut scratch, &mut st);
            assert_eq!(list.ids().collect::<Vec<_>>(), kept);
            assert_eq!(st.rejected, rejected);
            for (most, seen) in widest
                .iter_mut()
                .zip([kept.len(), orderings.len(), rels.into()])
            {
                *most = seen.max(*most);
            }
        }
        // The trials reached multi-word rows, every nibble on 16 relations
        // and more orderings than one word holds.
        assert!(
            widest[0] > 64 && widest[1] > 64 && widest[2] == 16,
            "{widest:?}"
        );
    }

    #[test]
    fn sweep_keeps_a_costlier_path_saved_by_startup_or_ordering() {
        let mut arena = PathArena::new();
        let (k1, k12) = (arena.intern(&[EcId(1)]), arena.intern(&[EcId(1), EcId(2)]));
        let a = Ioc::NONE.with_order(0, 0);
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        let path = |total, startup, keys, ioc| Path {
            cost: Cost { startup, total },
            ..mk(total, 0.0, keys, ioc)
        };
        for p in [
            path(10.0, 5.0, k1, Ioc::NONE),
            path(12.0, 1.0, k1, a),           // saved by its startup
            path(13.0, 9.0, k12, a),          // saved by its ordering
            path(14.0, 9.0, KeysId::NONE, a), // dominated by the first
            path(-0.0, 0.0, KeysId::NONE, a.with_order(1, 0)),
            path(0.0, 0.0, KeysId::NONE, a.with_order(1, 0).with_order(2, 1)),
        ] {
            list.add_path(&mut arena, p, PruneMode::KeepIoc, &mut st);
        }
        let before: Vec<PathId> = list.ids().collect();
        list.subset_cost_sweep(&arena, &mut SweepScratch::default(), &mut st);
        let kept: Vec<PathId> = list.ids().collect();
        assert_eq!(kept, naive_sweep(&arena, &before).0);
        // -0.0 sorts as 0.0: the older zero-cost path comes first and
        // removes the younger, which requires a superset of its orders.
        assert_eq!(kept, [before[4], before[0], before[1], before[2]]);
        assert_eq!(st.rejected, 2);
    }

    #[test]
    #[should_panic(expected = "has total cost NaN: path totals must be ≥ 0")]
    fn a_nan_total_fails_the_sweep_naming_the_path() {
        let mut arena = PathArena::new();
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        let a = Ioc::NONE.with_order(0, 0);
        list.add_path(
            &mut arena,
            mk(1.0, 0.0, KeysId::NONE, a),
            PruneMode::KeepIoc,
            &mut st,
        );
        let mut nan = mk(1.0, 0.0, KeysId::NONE, Ioc::NONE);
        nan.cost.total = f64::NAN;
        list.add_path(&mut arena, nan, PruneMode::KeepIoc, &mut st);
        list.subset_cost_sweep(&arena, &mut SweepScratch::default(), &mut st);
    }

    #[test]
    #[should_panic(expected = "seq(0) over {0} has total cost -1")]
    fn a_negative_total_fails_cheapest_total_naming_the_path() {
        let mut arena = PathArena::new();
        let mut list = PathList::new();
        let mut st = AddPathStats::default();
        let mut negative = mk(1.0, 0.0, KeysId::NONE, Ioc::NONE);
        negative.cost.total = -1.0;
        list.add_path(&mut arena, negative, PruneMode::Standard, &mut st);
        list.cheapest_total(&arena);
    }
}
