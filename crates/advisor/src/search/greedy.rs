//! The greedy family: the reference eager loop and its lazy-evaluation
//! upgrade. Both implement the paper's §V-E search — iteratively add the
//! candidate with the largest strictly positive benefit until nothing
//! improves or fits — and both produce the **same** [`GreedyResult`];
//! lazy greedy just prices far fewer probes to get there.
//!
//! Accepted picks are applied as **delta splices** ([`Run::commit`]): the
//! winning probe is re-priced with [`WorkloadModel::commit_probe_on`]
//! (its total is debug-asserted bit-identical to a full re-pricing) and
//! its changed queries are overlaid onto the running
//! [`PricedWorkload`](pinum_core::PricedWorkload) state. A
//! search seeded from a carried warm state therefore performs **zero**
//! full workload re-pricings — the property persistent pricing sessions
//! and their steady-state re-advises are built on.
//!
//! [`GreedyResult`]: crate::greedy::GreedyResult
//! [`WorkloadModel::commit_probe_on`]: pinum_core::WorkloadModel::commit_probe_on

use super::Run;
use pinum_core::Probe;
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
/// candidate with an add probe and picks the best strictly positive
/// benefit (ties to the lowest candidate id). Its picks and cost
/// trajectory are bit-identical to the naive
/// [`crate::greedy::greedy_select`] over the same cached models.
pub(super) fn eager(run: &mut Run) {
    let mut frontier: Vec<usize> = Vec::new();
    let mut probes: Vec<Probe> = Vec::new();
    loop {
        // The round's frontier, in ascending candidate order; the batch
        // writes each delta at its probe's index, so the argmax scan below
        // visits candidates in ascending order.
        frontier.clear();
        probes.clear();
        for cand in 0..run.pool.len() {
            let probe = Probe::Add { cand };
            if run.admits(probe) {
                frontier.push(cand);
                probes.push(probe);
            }
        }
        let deltas = run.price(&probes);
        // Each frontier entry's score, `None` once it is no longer a
        // contender this round: a non-positive or NaN benefit (inf - inf
        // probes are skipped, not picked — identical to the naive closure
        // engine so the two stay decision-identical), or a masked winner
        // whose exact benefit fell through below.
        let current = run.state.total();
        let mut scores: Vec<Option<f64>> = (frontier.iter().zip(&deltas))
            .map(|(&cand, delta)| {
                let benefit = current - delta.total;
                (benefit > 0.0).then(|| run.score(cand, benefit))
            })
            .collect();
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
            let Some((i, _)) = best else { return };
            if run.commit(probes[i], true) {
                break;
            }
            scores[i] = None; // fall through to the next-best contender
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
/// **Equivalence contract.** Lazy greedy reproduces [`eager`] *when
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
/// [`StrategyKind::EagerGreedy`](super::StrategyKind::EagerGreedy) — same
/// result type, every probe exact.
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
pub(super) fn lazy(run: &mut Run) {
    // Every candidate the run may add starts with an infinite bound and a
    // round tag that can never equal a real round, i.e. "never priced"
    // (warm members are already in the selection, not contenders;
    // out-of-scope and over-budget candidates never enter the heap).
    let mut round: u32 = 0;
    let mut heap: BinaryHeap<Entry> = (0..run.pool.len())
        .filter(|&cand| run.admits(Probe::Add { cand }))
        .map(|cand| Entry {
            score: f64::INFINITY,
            cand: cand as u32,
            round: u32::MAX,
        })
        .collect();
    // The budget only shrinks while greedy adds: a candidate that does
    // not fit now never will.
    let fits = |run: &Run, e: &Entry| {
        run.admits(Probe::Add {
            cand: e.cand as usize,
        })
    };

    // Fresh entries whose exact score is ≤ 0: useless *this* round, but
    // re-admitted after a pick so a later round re-probes them (exactly
    // the eager scan's skip-but-rescan treatment).
    let mut parked: Vec<Entry> = Vec::new();

    // One wave of stale entries, re-priced as a single batch
    // ([`reprice_wave`]).
    let mut wave: Vec<Entry> = Vec::new();
    let mut wave_cap = 1usize;

    while let Some(top) = heap.pop() {
        if !fits(run, &top) {
            continue; // permanently discarded
        }
        if top.round == round {
            if top.score <= 0.0 {
                // Exact and non-positive: park it and keep draining —
                // remaining stale entries still get their re-probe, so a
                // benefit that turned positive is found before the search
                // concludes.
                parked.push(top);
                continue;
            }
            // Jitter guard: a benefit is a difference of two summed
            // totals, so even a mathematically non-increasing benefit can
            // *rise* by a few ulps of the workload total between rounds —
            // and a stale bound recorded before that rise would
            // underestimate, hiding the true argmax from the heap. Every
            // stale bound within a total-scaled epsilon of the fresh top is
            // therefore re-priced (as one batch) before the top is
            // committed; ties among fresh entries then resolve exactly like
            // the eager scan's.
            let eps = run.state.total().abs() * 1e-12;
            while let Some(next) = heap.peek() {
                if next.round == round || next.score < top.score - eps {
                    break;
                }
                let next = heap.pop().expect("peeked entry vanished");
                if fits(run, &next) {
                    wave.push(next); // misfits: same permanent discard
                }
            }
            if !wave.is_empty() {
                heap.push(top);
                reprice_wave(run, &mut wave, &mut heap, round);
                continue;
            }
            // Fresh top: its score is exact, every other entry's bound is
            // an overestimate of its true score, and the heap says they
            // are all ≤ this one. This is greedy's pick. A masked winner
            // whose exact benefit is not positive is parked like any
            // non-positive entry (back in contention after the next pick).
            if !run.commit(
                Probe::Add {
                    cand: top.cand as usize,
                },
                true,
            ) {
                parked.push(top);
                continue;
            }
            round += 1;
            wave_cap = 1;
            // Parked entries are stale again relative to the new round;
            // put them back in contention.
            heap.extend(parked.drain(..));
            continue;
        }
        // Stale top: drain a wave of stale entries off the heap top
        // (budget misfits are permanently discarded on the way, same as
        // the main pop) and re-price the whole wave as one batch.
        wave.push(top);
        while wave.len() < wave_cap {
            match heap.peek() {
                Some(next) if next.round != round => {
                    let next = heap.pop().expect("peeked entry vanished");
                    if fits(run, &next) {
                        wave.push(next);
                    }
                }
                _ => break,
            }
        }
        wave_cap = (wave_cap * 2).min(LAZY_WAVE);
        reprice_wave(run, &mut wave, &mut heap, round);
    }
}

/// Re-prices a wave of stale entries as one batch and pushes them back
/// with their `round`'s exact scores. The wave is drained from the heap
/// top, so every entry in it was a candidate for the current argmax;
/// re-pricing replaces bounds with exact scores, which never changes which
/// candidate greedy ultimately commits — it only front-loads probes a
/// one-pop loop would have issued one pop at a time.
fn reprice_wave(run: &mut Run, wave: &mut Vec<Entry>, heap: &mut BinaryHeap<Entry>, round: u32) {
    let probes: Vec<Probe> = (wave.iter())
        .map(|e| Probe::Add {
            cand: e.cand as usize,
        })
        .collect();
    let deltas = run.price(&probes);
    let current = run.state.total();
    for (e, delta) in wave.drain(..).zip(&deltas) {
        let benefit = current - delta.total;
        // inf - inf: unusable *now*, but a later pick can make the
        // workload priceable; park at 0 so it is retried before the
        // search concludes (same semantics as the eager scan, which
        // skips-but-rescans NaN probes every round).
        let score = if benefit.is_nan() {
            0.0
        } else {
            run.score(e.cand as usize, benefit)
        };
        heap.push(Entry {
            score,
            cand: e.cand,
            round,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::fixture;
    use super::super::{SearchScope, StrategyKind};
    use super::*;
    use crate::greedy::GreedyOptions;
    use pinum_core::Selection;

    const EAGER: StrategyKind = StrategyKind::EagerGreedy;
    const LAZY: StrategyKind = StrategyKind::LazyGreedy;

    #[test]
    fn lazy_matches_eager_bit_for_bit() {
        let (pool, model) = fixture();
        for budget in [64u64 << 20, 256 << 20, u64::MAX] {
            for per_byte in [false, true] {
                let opts = GreedyOptions {
                    budget_bytes: budget,
                    benefit_per_byte: per_byte,
                };
                let eager = EAGER.search(&pool, &model, &opts);
                let lazy = LAZY.search(&pool, &model, &opts);
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
        let eager = EAGER.search(&pool, &model, &opts);
        let lazy = LAZY.search(&pool, &model, &opts);
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
            EAGER.search(&pool, &model, &opts),
            LAZY.search(&pool, &model, &opts),
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
        let cold = LAZY.search(&pool, &model, &opts);
        let warm_state = cold.final_state.clone().unwrap();
        let scope = SearchScope::all().with_warm_state(&warm_state);
        for kind in [LAZY, EAGER] {
            let warm = kind.search_scoped(&pool, &model, &opts, &cold.selection, &scope);
            assert_eq!(
                warm.full_repricings, 0,
                "{kind:?}: a carried warm state must not be re-priced"
            );
            assert_eq!(warm.selection, cold.selection, "{kind:?}");
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
        let unscoped = LAZY.search(&pool, &model, &opts);
        assert!(unscoped.picked.len() >= 2);
        // Allow only the first unscoped pick: the scoped search must pick
        // exactly within the mask.
        let only = Selection::from_ids(pool.len(), &unscoped.picked[..1]);
        let empty = Selection::empty(pool.len());
        let scope = SearchScope {
            mask: Some(&only),
            ..SearchScope::all()
        };
        for kind in [LAZY, EAGER] {
            let scoped = kind.search_scoped(&pool, &model, &opts, &empty, &scope);
            assert_eq!(scoped.picked, unscoped.picked[..1].to_vec(), "{kind:?}");
            assert!(
                scoped.evaluations < unscoped.evaluations,
                "{kind:?}: masking must cut probes"
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
