//! The greedy family: the reference eager loop and its lazy-evaluation
//! upgrade. Both implement the paper's §V-E search — iteratively add the
//! candidate with the largest strictly positive benefit until nothing
//! improves or fits — and both produce the **same** [`GreedyResult`];
//! lazy greedy just prices far fewer probes to get there.
//!
//! Accepted picks are applied as **delta splices**: the winning probe is
//! re-priced with [`WorkloadModel::price_probe_into`] (its total is
//! debug-asserted bit-identical to a full re-pricing) and its changed
//! queries are overlaid onto the running
//! [`PricedWorkload`](pinum_core::PricedWorkload) state. A
//! search seeded from a carried warm state therefore performs **zero**
//! full workload re-pricings — the property persistent pricing sessions
//! and their steady-state re-advises are built on.

use super::{
    debug_assert_state_matches, seed_state, seed_within_budget, SearchScope, SearchStrategy,
};
use crate::greedy::{GreedyOptions, GreedyResult};
use pinum_core::{CandidatePool, Probe, Selection, WorkloadModel};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Cap on how many stale heap entries lazy greedy re-prices per batched
/// wave. Waves start at one entry (the one-pop lazy behavior: in the
/// common case the re-priced top stays the top and is committed with no
/// extra probes) and double on each consecutive stale encounter within a
/// round, so heavy heap churn is re-priced in batches. The cap and the
/// doubling schedule fix the probe accounting, and with it every gated
/// metric.
const LAZY_WAVE: usize = 32;

/// The reference greedy: every round probes every remaining in-budget
/// candidate with an add probe ([`WorkloadModel::price_delta_batch`]) and
/// picks the best strictly positive benefit (ties to the lowest candidate
/// id). Its picks and cost trajectory are bit-identical to the naive
/// [`crate::greedy::greedy_select`] over the same cached models.
#[derive(Debug, Clone, Copy, Default)]
pub struct EagerGreedy;

impl SearchStrategy for EagerGreedy {
    fn name(&self) -> &'static str {
        "eager-greedy"
    }

    fn search_scoped(
        &self,
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
        warm: &Selection,
        scope: &SearchScope<'_>,
    ) -> GreedyResult {
        assert_eq!(
            pool.len(),
            model.pool_size(),
            "model built against a different candidate pool"
        );
        let (mut selection, mut picked, mut used_bytes) = seed_within_budget(pool, opts, warm);
        let mut evaluations = 0usize;
        let mut queries_repriced = 0usize;
        let mut full_repricings = 0usize;
        let mut state = seed_state(
            model,
            warm,
            &selection,
            scope,
            &mut evaluations,
            &mut queries_repriced,
            &mut full_repricings,
        );
        let mut trajectory = vec![state.total()];
        let mut scratch = Vec::new();
        let mut frontier: Vec<(usize, u64)> = Vec::new();
        let mut probes: Vec<Probe> = Vec::new();

        loop {
            // The round's frontier, in ascending candidate order; the
            // batch writes each delta at its probe's index, so the argmax
            // scan below visits candidates in ascending order.
            frontier.clear();
            probes.clear();
            for cand in 0..pool.len() {
                if selection.contains(cand) || !scope.allows(cand) {
                    continue;
                }
                let size = pool.index(cand).size().total_bytes();
                if used_bytes + size > opts.budget_bytes {
                    continue; // would violate the space constraint
                }
                frontier.push((cand, size));
                probes.push(Probe::Add { cand });
            }
            let deltas = model.price_delta_batch(&state, &selection, &probes, scope.query_mask);
            // Each frontier entry's score, `None` once it is no longer a
            // contender this round (non-positive or NaN benefit, or a
            // masked winner whose exact benefit fell through below).
            let mut scores: Vec<Option<f64>> = Vec::with_capacity(frontier.len());
            for (&(_, size), delta) in frontier.iter().zip(&deltas) {
                evaluations += 1;
                queries_repriced += delta.repriced;
                // NaN-proof benefit guard (inf - inf probes are skipped,
                // not picked) — identical to the naive closure engine so
                // the two stay decision-identical.
                let benefit = state.total() - delta.total;
                if benefit.is_nan() || benefit <= 0.0 {
                    scores.push(None);
                    continue;
                }
                scores.push(Some(if opts.benefit_per_byte {
                    benefit / size.max(1) as f64
                } else {
                    benefit
                }));
            }
            let mut committed = false;
            loop {
                // Strict `>` argmax: the first maximum scanned (lowest
                // candidate id) wins ties, same as the serial loop.
                let mut best: Option<(usize, f64)> = None; // (frontier idx, score)
                for (i, score) in scores.iter().enumerate() {
                    if let Some(score) = *score {
                        if best.is_none_or(|(_, s)| score > s) {
                            best = Some((i, score));
                        }
                    }
                }
                let Some((i, _)) = best else { break };
                let cand = frontier[i].0;
                // Re-run the winning probe serially and **unmasked** and
                // splice the changed queries into the running state: the
                // accepted pick costs O(affected), never a full
                // re-pricing, and the exact delta total is bit-identical
                // to `price_full` (asserted inside the delta itself).
                let exact = model.price_probe_into(&state, &selection, probes[i], &mut scratch);
                evaluations += 1;
                queries_repriced += exact.repriced;
                // A query mask ranks the frontier by *masked* benefit; a
                // winner that improves the masked queries while regressing
                // the rest would raise the true workload total. Re-check
                // the exact benefit before committing and fall through to
                // the next-best contender otherwise — masked search stays
                // monotone in the true objective. Unmasked, the exact
                // delta is bit-identical to the batch's, so this check
                // never fires.
                let exact_benefit = state.total() - exact.total;
                if exact_benefit.is_nan() || exact_benefit <= 0.0 {
                    debug_assert!(
                        scope.query_mask.is_some(),
                        "unmasked exact delta diverged from its batch delta"
                    );
                    scores[i] = None;
                    continue;
                }
                super::apply_changed(&mut state, &scratch, exact.total);
                selection.insert(cand);
                picked.push(cand);
                used_bytes += pool.index(cand).size().total_bytes();
                debug_assert_state_matches(model, &selection, &state);
                trajectory.push(state.total());
                committed = true;
                break;
            }
            if !committed {
                break;
            }
        }

        GreedyResult {
            picked,
            selection,
            cost_trajectory: trajectory,
            total_bytes: used_bytes,
            evaluations,
            queries_repriced,
            full_repricings,
            final_state: Some(state),
        }
    }
}

/// A heap entry: the candidate's last observed score (an upper bound once
/// the selection has grown past `round`) and the round it was computed in.
#[derive(Debug, Clone, Copy)]
struct Entry {
    score: f64,
    cand: u32,
    round: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: larger score first; among equal scores the *lower*
        // candidate id has priority, reproducing the eager scan's
        // first-maximum tie-breaking. Scores are never NaN (guarded before
        // push), so partial_cmp cannot fail.
        self.score
            .partial_cmp(&other.score)
            .expect("NaN score escaped the push guard")
            .then_with(|| other.cand.cmp(&self.cand))
    }
}

/// Lazy greedy (Minoux's accelerated greedy): a max-heap holds each
/// candidate's **stale benefit upper bound** — the score observed the last
/// time it was priced. A popped entry that is stale is re-priced under the
/// current selection and pushed back; a popped entry that is *fresh*
/// (priced in the current round) already beats every other bound, and
/// bounds only overestimate, so it is the exact argmax and is picked
/// immediately.
///
/// **Equivalence contract.** Lazy greedy reproduces [`EagerGreedy`] *when
/// observed benefits are non-increasing as the selection grows*
/// (diminishing returns): then a stale score can only overestimate, never
/// underestimate, so the heap order never hides the true maximum. The
/// flattened cost model satisfies this on every tested workload (star
/// seeds, TPC-H, the 200×400 scale experiment — gated bit-identical in
/// CI), but it is not a theorem of the model: complementary candidates
/// (e.g. a cached plan whose required orders need two hypothetical
/// indexes at once) can make a benefit *rise* after a pick, and a stale
/// positive bound recorded before the rise would then hide the increase.
/// If exact equivalence matters on an untested workload, run
/// [`EagerGreedy`] — same result type, every probe exact.
///
/// **Summation jitter.** Benefits are differences of summed workload
/// totals, so even a mathematically constant benefit can drift by a few
/// ulps of the total between rounds — enough to make a stale bound
/// *underestimate* and hide the true argmax. Before a fresh top is
/// committed, any stale bound within a total-scaled epsilon of it is
/// re-priced, so ulp-level drift costs a handful of extra probes instead
/// of a divergent pick.
///
/// Within that contract the implementation mirrors the eager scan's edge
/// behavior exactly: candidates whose benefit is ≤ 0 or NaN (workload
/// still priced at infinity) are parked, re-admitted after every pick,
/// and re-probed before the search concludes — never silently discarded.
/// Because non-positive entries sit at the bottom of the heap, those
/// re-probes only happen in rounds whose maximum has already dropped to
/// ≤ 0 (in the common case, just the terminating round). Only budget
/// violations discard permanently (the remaining budget never grows
/// back).
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyGreedy;

impl SearchStrategy for LazyGreedy {
    fn name(&self) -> &'static str {
        "lazy-greedy"
    }

    fn search_scoped(
        &self,
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
        warm: &Selection,
        scope: &SearchScope<'_>,
    ) -> GreedyResult {
        assert_eq!(
            pool.len(),
            model.pool_size(),
            "model built against a different candidate pool"
        );
        let (mut selection, mut picked, mut used_bytes) = seed_within_budget(pool, opts, warm);
        let mut evaluations = 0usize;
        let mut queries_repriced = 0usize;
        let mut full_repricings = 0usize;
        let mut state = seed_state(
            model,
            warm,
            &selection,
            scope,
            &mut evaluations,
            &mut queries_repriced,
            &mut full_repricings,
        );
        let mut trajectory = vec![state.total()];
        let mut scratch = Vec::new();

        // Every unselected in-scope candidate starts with an infinite
        // bound and a round tag that can never equal a real round, i.e.
        // "never priced" (warm members are already in the selection, not
        // contenders; out-of-scope candidates never enter the heap).
        let mut round: u32 = 0;
        let mut heap: BinaryHeap<Entry> = (0..pool.len() as u32)
            .filter(|&cand| !selection.contains(cand as usize) && scope.allows(cand as usize))
            .map(|cand| Entry {
                score: f64::INFINITY,
                cand,
                round: u32::MAX,
            })
            .collect();

        // Fresh entries whose exact score is ≤ 0: useless *this* round,
        // but re-admitted after a pick so a later round re-probes them
        // (exactly the eager scan's skip-but-rescan treatment).
        let mut parked: Vec<Entry> = Vec::new();

        // One wave of stale entries, re-priced as a single batch. The
        // wave is drained from the heap top, so every entry in it was a
        // candidate for the current argmax; re-pricing replaces bounds
        // with exact scores, which never changes which candidate greedy
        // ultimately commits — it only front-loads probes a one-pop loop
        // would have issued one pop at a time.
        let mut wave: Vec<Entry> = Vec::new();
        let mut wave_cap = 1usize;
        let reprice_wave = |wave: &mut Vec<Entry>,
                            heap: &mut BinaryHeap<Entry>,
                            state: &pinum_core::PricedWorkload,
                            selection: &Selection,
                            round: u32,
                            evaluations: &mut usize,
                            queries_repriced: &mut usize| {
            let probes: Vec<Probe> = wave
                .iter()
                .map(|e| Probe::Add {
                    cand: e.cand as usize,
                })
                .collect();
            let deltas = model.price_delta_batch(state, selection, &probes, scope.query_mask);
            for (e, delta) in wave.drain(..).zip(&deltas) {
                *evaluations += 1;
                *queries_repriced += delta.repriced;
                let benefit = state.total() - delta.total;
                let score = if benefit.is_nan() {
                    // inf - inf: unusable *now*, but a later pick can make
                    // the workload priceable; park at 0 so it is retried
                    // before the search concludes (same semantics as the
                    // eager scan, which skips-but-rescans NaN probes every
                    // round).
                    0.0
                } else if opts.benefit_per_byte {
                    benefit / pool.index(e.cand as usize).size().total_bytes().max(1) as f64
                } else {
                    benefit
                };
                heap.push(Entry {
                    score,
                    cand: e.cand,
                    round,
                });
            }
        };

        while let Some(top) = heap.pop() {
            let cand = top.cand as usize;
            let size = pool.index(cand).size().total_bytes();
            if used_bytes + size > opts.budget_bytes {
                // The budget only shrinks: a candidate that does not fit
                // now never will. Drop it permanently.
                continue;
            }
            if top.round == round {
                if top.score <= 0.0 {
                    // Exact and non-positive: park it and keep draining —
                    // remaining stale entries still get their re-probe, so
                    // a benefit that turned positive is found before the
                    // search concludes.
                    parked.push(top);
                    continue;
                }
                // Jitter guard: a benefit is a difference of two summed
                // totals, so even a mathematically non-increasing benefit
                // can *rise* by a few ulps of the workload total between
                // rounds — and a stale bound recorded before that rise
                // would underestimate, hiding the true argmax from the
                // heap. Every stale bound within a total-scaled epsilon of
                // the fresh top is therefore re-priced (as one batch)
                // before the top is committed; ties among fresh entries
                // then resolve exactly like the eager scan's.
                let eps = state.total().abs() * 1e-12;
                while let Some(next) = heap.peek() {
                    if next.round == round || next.score < top.score - eps {
                        break;
                    }
                    let next = heap.pop().expect("peeked entry vanished");
                    if used_bytes + pool.index(next.cand as usize).size().total_bytes()
                        > opts.budget_bytes
                    {
                        continue; // same permanent discard as the main pop
                    }
                    wave.push(next);
                }
                if !wave.is_empty() {
                    heap.push(top);
                    reprice_wave(
                        &mut wave,
                        &mut heap,
                        &state,
                        &selection,
                        round,
                        &mut evaluations,
                        &mut queries_repriced,
                    );
                    continue;
                }
                // Fresh top: its score is exact, every other entry's bound
                // is an overestimate of its true score, and the heap says
                // they are all ≤ this one. This is greedy's pick. Re-price
                // it serially and **unmasked** and apply it as a delta
                // splice: O(affected) instead of a full re-pricing, with
                // the exact bit-identical total even when a query mask
                // ranked the heap.
                let exact =
                    model.price_probe_into(&state, &selection, Probe::Add { cand }, &mut scratch);
                evaluations += 1;
                queries_repriced += exact.repriced;
                // Masked scores rank by *masked* benefit; before the pick
                // is committed its exact unmasked benefit must also be
                // positive, or the move would regress the true workload
                // total. A masked winner that fails the exact check is
                // parked like any non-positive entry (back in contention
                // after the next pick); unmasked, the exact delta is
                // bit-identical to the batch's and this never fires.
                let exact_benefit = state.total() - exact.total;
                if exact_benefit.is_nan() || exact_benefit <= 0.0 {
                    debug_assert!(
                        scope.query_mask.is_some(),
                        "unmasked exact delta diverged from its batch delta"
                    );
                    parked.push(top);
                    continue;
                }
                super::apply_changed(&mut state, &scratch, exact.total);
                selection.insert(cand);
                picked.push(cand);
                used_bytes += size;
                debug_assert_state_matches(model, &selection, &state);
                trajectory.push(state.total());
                round += 1;
                wave_cap = 1;
                // Parked entries are stale again relative to the new
                // round; put them back in contention.
                heap.extend(parked.drain(..));
                continue;
            }
            // Stale top: drain a wave of stale entries off the heap top
            // (budget misfits are permanently discarded on the way, same
            // as the main pop) and re-price the whole wave as one batch.
            wave.push(top);
            while wave.len() < wave_cap {
                match heap.peek() {
                    Some(next) if next.round != round => {
                        let next = heap.pop().expect("peeked entry vanished");
                        if used_bytes + pool.index(next.cand as usize).size().total_bytes()
                            > opts.budget_bytes
                        {
                            continue;
                        }
                        wave.push(next);
                    }
                    _ => break,
                }
            }
            wave_cap = (wave_cap * 2).min(LAZY_WAVE);
            reprice_wave(
                &mut wave,
                &mut heap,
                &state,
                &selection,
                round,
                &mut evaluations,
                &mut queries_repriced,
            );
        }

        GreedyResult {
            picked,
            selection,
            cost_trajectory: trajectory,
            total_bytes: used_bytes,
            evaluations,
            queries_repriced,
            full_repricings,
            final_state: Some(state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::fixture;
    use super::*;

    #[test]
    fn lazy_matches_eager_bit_for_bit() {
        let (pool, model) = fixture();
        for budget in [64u64 << 20, 256 << 20, u64::MAX] {
            for per_byte in [false, true] {
                let opts = GreedyOptions {
                    budget_bytes: budget,
                    benefit_per_byte: per_byte,
                };
                let eager = EagerGreedy.search(&pool, &model, &opts);
                let lazy = LazyGreedy.search(&pool, &model, &opts);
                assert_eq!(eager.picked, lazy.picked, "budget {budget} pb {per_byte}");
                assert_eq!(
                    eager.cost_trajectory, lazy.cost_trajectory,
                    "budget {budget} pb {per_byte}"
                );
                assert_eq!(eager.total_bytes, lazy.total_bytes);
                assert!(
                    lazy.evaluations <= eager.evaluations,
                    "lazy probed more ({} vs {})",
                    lazy.evaluations,
                    eager.evaluations
                );
            }
        }
    }

    #[test]
    fn lazy_probes_strictly_less_when_there_are_multiple_picks() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: u64::MAX,
            benefit_per_byte: false,
        };
        let eager = EagerGreedy.search(&pool, &model, &opts);
        let lazy = LazyGreedy.search(&pool, &model, &opts);
        assert!(eager.picked.len() >= 2, "fixture should pick ≥2 indexes");
        assert!(
            lazy.evaluations < eager.evaluations,
            "lazy saved nothing ({} vs {})",
            lazy.evaluations,
            eager.evaluations
        );
    }

    #[test]
    fn final_state_is_the_full_repricing_of_the_final_selection() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: u64::MAX,
            benefit_per_byte: false,
        };
        for result in [
            EagerGreedy.search(&pool, &model, &opts),
            LazyGreedy.search(&pool, &model, &opts),
        ] {
            let state = result.final_state.expect("model engines track state");
            let full = model.price_full(&result.selection);
            assert_eq!(state.total().to_bits(), full.total().to_bits());
            assert_eq!(state.per_query(), full.per_query());
            assert_eq!(result.full_repricings, 1, "only the seed pricing is full");
        }
    }

    #[test]
    fn warm_state_seeding_spends_zero_full_repricings() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: u64::MAX,
            benefit_per_byte: false,
        };
        let cold = LazyGreedy.search(&pool, &model, &opts);
        let warm_state = cold.final_state.clone().unwrap();
        let scope = SearchScope::all().with_warm_state(&warm_state);
        for strategy in [&LazyGreedy as &dyn SearchStrategy, &EagerGreedy] {
            let warm = strategy.search_scoped(&pool, &model, &opts, &cold.selection, &scope);
            assert_eq!(
                warm.full_repricings,
                0,
                "{}: a carried warm state must not be re-priced",
                strategy.name()
            );
            assert_eq!(warm.selection, cold.selection, "{}", strategy.name());
            assert_eq!(
                warm.cost_trajectory[0].to_bits(),
                warm_state.total().to_bits()
            );
        }
    }

    #[test]
    fn mask_restricts_the_picks() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: u64::MAX,
            benefit_per_byte: false,
        };
        let unscoped = LazyGreedy.search(&pool, &model, &opts);
        assert!(unscoped.picked.len() >= 2);
        // Allow only the first unscoped pick: the scoped search must pick
        // exactly within the mask.
        let only = Selection::from_ids(pool.len(), &unscoped.picked[..1]);
        let empty = Selection::empty(pool.len());
        let scope = SearchScope {
            mask: Some(&only),
            ..SearchScope::all()
        };
        for strategy in [&LazyGreedy as &dyn SearchStrategy, &EagerGreedy] {
            let scoped = strategy.search_scoped(&pool, &model, &opts, &empty, &scope);
            assert_eq!(
                scoped.picked,
                unscoped.picked[..1].to_vec(),
                "{}",
                strategy.name()
            );
            assert!(
                scoped.evaluations < unscoped.evaluations,
                "{}: masking must cut probes",
                strategy.name()
            );
        }
    }

    #[test]
    fn heap_entry_ordering_breaks_ties_toward_low_ids() {
        let a = Entry {
            score: 1.0,
            cand: 3,
            round: 0,
        };
        let b = Entry {
            score: 1.0,
            cand: 7,
            round: 0,
        };
        let c = Entry {
            score: 2.0,
            cand: 9,
            round: 0,
        };
        assert!(a > b, "equal scores must prefer the lower candidate id");
        assert!(c > a);
        let mut heap = BinaryHeap::from(vec![a, b, c]);
        assert_eq!(heap.pop().unwrap().cand, 9);
        assert_eq!(heap.pop().unwrap().cand, 3);
        assert_eq!(heap.pop().unwrap().cand, 7);
    }
}
