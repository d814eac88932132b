//! Drop-one/add-one local search on top of a greedy seed — the first
//! consumer of the bidirectional deltas. Greedy only ever *adds*, so it
//! can strand capacity on a narrow index whose job a later, wider pick
//! also covers; a swap probe ([`pinum_core::Probe::Swap`]) prices
//! "replace selected `s` with unselected `c`" as one delta over the
//! merged affected-query sets. A round sends its neighbourhood drop-major,
//! so the kernel prices each dropped index's affected queries once and
//! re-prices only the added index's queries per exchange.

use super::Run;
use pinum_core::Probe;

/// Steepest-descent swap hill climbing on the run's lazy-greedy seed:
/// repeatedly apply the single most improving drop-one/add-one exchange
/// until no swap lowers the workload cost (or `max_rounds` is hit). Every
/// accepted swap strictly lowers the exact cost, so the result is never
/// worse than the greedy seed.
pub(super) fn climb(run: &mut Run, max_rounds: usize) {
    let mut probes: Vec<Probe> = Vec::new();
    for _ in 0..max_rounds {
        // Steepest descent: batch-price all (drop, add) exchanges that fit
        // the budget, keep the lowest resulting cost. The neighborhood is
        // enumerated in ascending drop id, then add id — one run of swaps
        // per drop, whose drop pass the batch shares; deltas land at their
        // probe's index, so the argmin scan breaks ties toward the first
        // exchange scanned. Drops may touch any member; adds are
        // restricted to the scope.
        let members: Vec<usize> = run.selection.ids().collect();
        probes.clear();
        for &drop in &members {
            for add in 0..run.pool.len() {
                let probe = Probe::Swap { add, drop };
                if run.admits(probe) {
                    probes.push(probe);
                }
            }
        }
        let deltas = run.price(&probes);
        // Same NaN-proof guard as the greedy engines: an inf/NaN probe
        // must never win the argmin.
        let current = run.state.total();
        let mut improving: Vec<(usize, f64)> = (deltas.iter().enumerate())
            .filter(|(_, delta)| current - delta.total > 0.0)
            .map(|(i, delta)| (i, delta.total))
            .collect(); // (probe idx, proposed cost)
                        // Lowest proposed cost first; among ties the first exchange
                        // enumerated wins — exactly the strict `<` argmin scan.
        improving.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("NaN totals were filtered above")
                .then(a.0.cmp(&b.0))
        });
        // A query mask ranks the neighborhood by *masked* cost, so an
        // exchange that helps the masked queries can still regress the
        // full workload: the commit re-checks the exact gain and the climb
        // falls through to the next-best exchange, staying a strict
        // descent in the true objective. Unmasked, the first candidate
        // always passes.
        if !improving.iter().any(|&(i, _)| run.commit(probes[i], true)) {
            break; // local optimum under the swap neighbourhood
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{climb_rounds, fixture, pinned_runs, Pin};
    use super::super::StrategyKind;
    use crate::greedy::GreedyOptions;

    #[test]
    fn never_worse_than_greedy_seed() {
        let (pool, model) = fixture();
        for budget in [32u64 << 20, 128 << 20, u64::MAX] {
            let opts = GreedyOptions {
                budget_bytes: budget,
                benefit_per_byte: false,
            };
            let greedy = StrategyKind::LazyGreedy.search(&pool, &model, &opts);
            let swap = StrategyKind::SwapHillClimb.search(&pool, &model, &opts);
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
        let greedy = StrategyKind::LazyGreedy.search(&pool, &model, &opts);
        let swap = climb_rounds(&pool, &model, &opts, 0);
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
            pinned_runs(StrategyKind::SwapHillClimb),
            [
                Pin {
                    picked: vec![5, 11],
                    trajectory_bits: vec![
                        0x40c5f84000000000,
                        0x40865ac28f5c28f6,
                        0x40859ac28f5c28f6
                    ],
                    evaluations: 41,
                    queries_repriced: 56,
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
                    queries_repriced: 42,
                    total_bytes: 18_923_520,
                    final_total_bits: 0x40865ac28f5c28f6,
                },
            ]
        );
    }
}
