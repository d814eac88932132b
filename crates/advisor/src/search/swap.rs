//! Drop-one/add-one local search on top of a greedy seed — the first
//! consumer of the bidirectional deltas. Greedy only ever *adds*, so it
//! can strand capacity on a narrow index whose job a later, wider pick
//! also covers; a swap probe ([`pinum_core::Probe::Swap`]) prices
//! "replace selected `s` with unselected `c`" as one delta over the
//! merged affected-query sets. A round sends its neighbourhood drop-major,
//! so the kernel prices each dropped index's affected queries once and
//! re-prices only the added index's queries per exchange.

use super::{apply_changed, debug_assert_state_matches, LazyGreedy, SearchScope, SearchStrategy};
use crate::greedy::{GreedyOptions, GreedyResult};
use pinum_core::{CandidatePool, Probe, Selection, WorkloadModel};

/// Steepest-descent swap hill climbing: seed with [`LazyGreedy`], then
/// repeatedly apply the single most improving drop-one/add-one exchange
/// until no swap lowers the workload cost (or `max_rounds` is hit). Every
/// accepted swap strictly lowers the cost, so the result is never worse
/// than the greedy seed.
#[derive(Debug, Clone, Copy)]
pub struct SwapHillClimb {
    /// Upper bound on accepted swaps (each round scans |selection| × |pool|
    /// swap candidates; the bound keeps worst-case cost predictable).
    pub max_rounds: usize,
}

impl Default for SwapHillClimb {
    fn default() -> Self {
        Self { max_rounds: 32 }
    }
}

impl SearchStrategy for SwapHillClimb {
    fn name(&self) -> &'static str {
        "swap-hill-climb"
    }

    fn search_scoped(
        &self,
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
        warm: &Selection,
        scope: &SearchScope<'_>,
    ) -> GreedyResult {
        let seed = LazyGreedy.search_scoped(pool, model, opts, warm, scope);
        let mut selection = seed.selection;
        let mut picked = seed.picked;
        let mut trajectory = seed.cost_trajectory;
        let mut used_bytes = seed.total_bytes;
        let mut evaluations = seed.evaluations;
        let mut queries_repriced = seed.queries_repriced;
        let full_repricings = seed.full_repricings;

        // The greedy seed hands over its exact final state — no
        // re-pricing between seed and climb.
        let mut state = seed.final_state.expect("lazy greedy tracks state");
        let mut scratch = Vec::new();
        let mut probes: Vec<Probe> = Vec::new();

        for _ in 0..self.max_rounds {
            // Steepest descent: batch-price all (drop, add) exchanges that
            // fit the budget, keep the lowest resulting cost. The
            // neighborhood is enumerated in ascending drop id, then add
            // id — one run of swaps per drop, whose drop pass the batch
            // shares; deltas land at their probe's index, so the argmin
            // scan breaks ties toward the first exchange scanned. Drops
            // may touch any member; adds are restricted to the scope.
            let members: Vec<usize> = selection.ids().collect();
            probes.clear();
            for &drop in &members {
                let drop_bytes = pool.index(drop).size().total_bytes();
                for add in 0..pool.len() {
                    if selection.contains(add) || !scope.allows(add) {
                        continue;
                    }
                    let add_bytes = pool.index(add).size().total_bytes();
                    if used_bytes - drop_bytes + add_bytes > opts.budget_bytes {
                        continue;
                    }
                    probes.push(Probe::Swap { add, drop });
                }
            }
            let deltas = model.price_delta_batch(&state, &selection, &probes, scope.query_mask);
            let mut improving: Vec<(usize, f64)> = Vec::new(); // (probe idx, proposed cost)
            for (i, delta) in deltas.iter().enumerate() {
                evaluations += 1;
                queries_repriced += delta.repriced;
                // Same NaN-proof guard as the greedy engines: an
                // inf/NaN probe must never win the argmin.
                let gain = state.total() - delta.total;
                if gain.is_nan() || gain <= 0.0 {
                    continue;
                }
                improving.push((i, delta.total));
            }
            // Lowest proposed cost first; among ties the first exchange
            // enumerated wins — exactly the strict `<` argmin scan.
            improving.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("NaN totals were filtered above")
                    .then(a.0.cmp(&b.0))
            });
            let mut committed = false;
            for &(i, _) in &improving {
                let Probe::Swap { add, drop } = probes[i] else {
                    unreachable!("swap neighborhood holds only swap probes");
                };
                // Re-run the candidate probe serially and **unmasked**:
                // the exact delta total is bit-identical to a full reprice
                // (debug-asserted inside the delta itself). A query mask
                // ranks the neighborhood by *masked* cost, so an exchange
                // that helps the masked queries can still regress the full
                // workload — re-check the exact gain before splicing and
                // fall through to the next-best exchange otherwise, so the
                // climb stays a strict descent in the true objective.
                // Unmasked, the first candidate always passes.
                let exact = model.price_probe_into(&state, &selection, probes[i], &mut scratch);
                evaluations += 1;
                queries_repriced += exact.repriced;
                let exact_gain = state.total() - exact.total;
                if exact_gain.is_nan() || exact_gain <= 0.0 {
                    debug_assert!(
                        scope.query_mask.is_some(),
                        "unmasked exact swap delta diverged from its batch delta"
                    );
                    continue;
                }
                apply_changed(&mut state, &scratch, exact.total);
                selection.remove(drop);
                selection.insert(add);
                debug_assert_state_matches(model, &selection, &state);
                used_bytes = used_bytes - pool.index(drop).size().total_bytes()
                    + pool.index(add).size().total_bytes();
                // `picked` tracks the surviving set in acquisition
                // order: the dropped index leaves, the added one joins
                // at the end.
                picked.retain(|&p| p != drop);
                picked.push(add);
                trajectory.push(state.total());
                committed = true;
                break;
            }
            if !committed {
                break; // local optimum under the swap neighbourhood
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

#[cfg(test)]
mod tests {
    use super::super::tests::{fixture, pinned_runs, Pin};
    use super::*;

    #[test]
    fn never_worse_than_greedy_seed() {
        let (pool, model) = fixture();
        for budget in [32u64 << 20, 128 << 20, u64::MAX] {
            let opts = GreedyOptions {
                budget_bytes: budget,
                benefit_per_byte: false,
            };
            let greedy = LazyGreedy.search(&pool, &model, &opts);
            let swap = SwapHillClimb::default().search(&pool, &model, &opts);
            let g = *greedy.cost_trajectory.last().unwrap();
            let s = *swap.cost_trajectory.last().unwrap();
            assert!(s <= g, "swap ended worse than greedy: {s} vs {g}");
            assert!(swap.total_bytes <= opts.budget_bytes);
            assert_eq!(swap.picked.len(), swap.selection.len());
        }
    }

    #[test]
    fn zero_rounds_reduces_to_greedy() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: 256 << 20,
            benefit_per_byte: false,
        };
        let greedy = LazyGreedy.search(&pool, &model, &opts);
        let swap = SwapHillClimb { max_rounds: 0 }.search(&pool, &model, &opts);
        assert_eq!(greedy.picked, swap.picked);
        assert_eq!(greedy.cost_trajectory, swap.cost_trajectory);
    }

    /// The default climb, every output bit for bit, (a) cold and (b) as
    /// the scoped warm re-advise (see [`pinned_runs`]). Under (b) the
    /// climb exchanges stale member 2 for 5, one step past its lazy seed;
    /// the swap neighbourhood is priced under a query mask there.
    #[test]
    fn default_climb_is_pinned() {
        assert_eq!(
            pinned_runs(&SwapHillClimb::default()),
            [
                Pin {
                    picked: vec![5, 11],
                    trajectory_bits: vec![
                        0x40c5f84000000000,
                        0x40865ac28f5c28f6,
                        0x40859ac28f5c28f6
                    ],
                    evaluations: 41,
                    queries_repriced: 65,
                    total_bytes: 18_841_600,
                    final_total_bits: 0x40859ac28f5c28f6,
                },
                Pin {
                    picked: vec![7, 1, 5],
                    trajectory_bits: vec![
                        0x40af4f9b33695430,
                        0x40af1f9b33695430,
                        0x40865ac28f5c28f6
                    ],
                    evaluations: 57,
                    queries_repriced: 53,
                    total_bytes: 18_923_520,
                    final_total_bits: 0x40865ac28f5c28f6,
                },
            ]
        );
    }
}
