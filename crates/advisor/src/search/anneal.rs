//! Deterministic simulated annealing over the selection space, driven
//! entirely by incremental deltas: a proposal *is* a [`Probe`] (add,
//! drop, or swap). Proposals are drawn in fixed-size blocks against the
//! block-start state, and each is priced only when the Metropolis walk
//! reaches it — a one-probe [`Run::price`] under the scope's query mask —
//! so the proposals a block draws after its first acceptance are never
//! priced. An accepted one is re-derived exactly by [`Run::commit`]
//! before it is spliced. The RNG is the in-tree `rand` shim seeded
//! explicitly and its consumption schedule is fixed by the block size, so
//! a run is a pure function of `(pool, model, options, seed)`.

use super::Run;
use pinum_core::Probe;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Proposals drawn per annealing block. The constant fixes the proposal
/// schedule and the RNG stream, and with them every output; pricing is
/// per walked proposal, not per block.
const BLOCK: usize = 16;

/// Number of proposals the Metropolis walk visits. Proposals drawn into a
/// block but discarded after an earlier acceptance are *refunded* — they
/// neither spend an iteration nor advance the temperature — so the count
/// means the same thing it does for a serial walk at every acceptance
/// rate.
const ITERATIONS: usize = 1_500;

/// Initial temperature, in units of *relative* cost change (0.05 ⇒ a 5 %
/// cost increase is accepted with probability 1/e at the start).
const INITIAL_TEMP: f64 = 0.05;

/// Geometric cooling factor applied per iteration.
const COOLING: f64 = 0.997;

/// Simulated annealing on the run's lazy-greedy seed. Proposes random
/// add/drop/swap moves, accepts improving moves always and worsening moves
/// with probability `exp(-Δrel / T)` under a geometric cooling schedule,
/// and leaves the run at the **best selection ever visited** — so the
/// final cost is never above the greedy seed's. The trajectory records
/// each new best; picks are the final set in ascending id order (pick
/// order is meaningless after annealing).
///
/// Under a [`SearchScope::query_mask`](super::SearchScope::query_mask) the
/// Metropolis rule evaluates the *masked* delta, so a move that helps the
/// masked queries while regressing the rest can be accepted — that is
/// ordinary annealing (worsening moves are allowed by design), and the
/// maintained state and best-ever tracking always use the exact unmasked
/// totals, so the run ends at the best true-cost state the walk visited.
pub(super) fn walk(run: &mut Run, seed: u64) {
    if run.pool.is_empty() {
        return;
    }
    let mut best_selection = run.selection.clone();
    let mut best_state = run.state.clone();
    let mut best_bytes = run.used_bytes;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut temp = INITIAL_TEMP;

    // The walk runs in blocks: a block's proposals are all drawn against
    // the block-start state, then walked serially through the Metropolis
    // rule in draw order, each priced against that state when the walk
    // reaches it. The first acceptance applies its move and discards the
    // block's remaining proposals unpriced — their draw-time validity is
    // stale against the new state. Discarded proposals are **refunded**:
    // only walked proposals are charged against `ITERATIONS` and advance
    // the temperature, so the count keeps its serial meaning — the number
    // of states the Metropolis chain actually visits — at every
    // acceptance rate. RNG consumption is: all of a block's proposal draws
    // first, then one acceptance draw per walked finite-worsening proposal
    // — a fixed schedule (though not a one-proposal-at-a-time walk's
    // stream: discarded proposals consumed draws).
    let mut moves: Vec<Option<Probe>> = Vec::with_capacity(BLOCK);
    let mut remaining = ITERATIONS;
    while remaining > 0 {
        let members: Vec<usize> = run.selection.ids().collect();
        moves.clear();
        for _ in 0..BLOCK.min(remaining) {
            // Propose a move; invalid proposals still consume RNG draws so
            // the stream (and thus the run) stays deterministic.
            let mv = match rng.gen_range(0..3u32) {
                // Add a random unselected in-scope candidate that fits the
                // budget (out-of-scope draws are invalid proposals, so the
                // RNG stream — and thus an unmasked run — is unchanged).
                0 => Some(Probe::Add {
                    cand: rng.gen_range(0..run.pool.len()),
                }),
                // Drop a random member.
                1 => (!members.is_empty()).then(|| Probe::Drop {
                    cand: members[rng.gen_range(0..members.len())],
                }),
                // Swap a random member for a random non-member.
                _ => (!members.is_empty()).then(|| Probe::Swap {
                    drop: members[rng.gen_range(0..members.len())],
                    add: rng.gen_range(0..run.pool.len()),
                }),
            };
            moves.push(mv.filter(|&mv| run.admits(mv)));
        }

        let mut walked = 0usize;
        for entry in &moves {
            // Each walked proposal — valid or not — spends one iteration
            // and one cooling step, exactly like the serial walk; the
            // block's unwalked remainder is refunded.
            walked += 1;
            temp *= COOLING;
            let Some(mv) = *entry else { continue };
            let delta = run.price(&[mv])[0];
            if !accept(run.state.total(), delta.total, temp, &mut rng) {
                continue;
            }
            // Accepted: the commit re-derives the move's exact
            // **unmasked** delta and splices it, so the maintained state
            // stays bit-identical to `price_full` even when a query mask
            // ranked the proposals.
            run.commit(mv, false);
            if run.state.total() < best_state.total() {
                best_selection = run.selection.clone();
                best_state = run.state.clone();
                best_bytes = run.used_bytes;
                run.trajectory.push(best_state.total());
            }
            break; // discard the block's stale remainder
        }
        // Charge only what was walked (≥ 1, so the loop terminates); the
        // discarded remainder is redrawn next block.
        remaining -= walked;
    }
    run.picked = best_selection.ids().collect();
    run.selection = best_selection;
    run.state = best_state;
    run.used_bytes = best_bytes;
}

/// Metropolis acceptance on *relative* cost change: always accept
/// improvements (including inf → finite); accept a worsening with
/// probability `exp(-Δrel / temp)`. NaN or newly infinite costs are
/// rejected outright.
fn accept(current: f64, proposed: f64, temp: f64, rng: &mut StdRng) -> bool {
    if proposed.is_nan() {
        return false;
    }
    if proposed <= current {
        return true; // improvement or no-op (covers inf → finite)
    }
    if proposed.is_infinite() || current.is_infinite() || temp <= 0.0 {
        return false;
    }
    let delta_rel = (proposed - current) / current.abs().max(f64::MIN_POSITIVE);
    rng.gen_bool((-delta_rel / temp).exp().clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::super::tests::{fixture, pinned_runs, Pin};
    use super::super::StrategyKind;
    use super::*;
    use crate::greedy::GreedyOptions;

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: 256 << 20,
            benefit_per_byte: false,
        };
        let a = StrategyKind::Anneal { seed: 42 }.search(&pool, &model, &opts);
        let b = StrategyKind::Anneal { seed: 42 }.search(&pool, &model, &opts);
        assert_eq!(a.picked, b.picked);
        assert_eq!(a.cost_trajectory, b.cost_trajectory);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn never_worse_than_greedy_seed() {
        let (pool, model) = fixture();
        for seed in [1u64, 7, 0xDEAD] {
            for budget in [32u64 << 20, u64::MAX] {
                let opts = GreedyOptions {
                    budget_bytes: budget,
                    benefit_per_byte: false,
                };
                let greedy = StrategyKind::LazyGreedy.search(&pool, &model, &opts);
                let anneal = StrategyKind::Anneal { seed }.search(&pool, &model, &opts);
                let g = *greedy.cost_trajectory.last().unwrap();
                let a = *anneal.cost_trajectory.last().unwrap();
                assert!(a <= g, "seed {seed}: anneal {a} worse than greedy {g}");
                assert!(anneal.total_bytes <= opts.budget_bytes);
            }
        }
    }

    /// Three seeded walks, every output bit for bit, (a) cold and (b) as
    /// the scoped warm re-advise (see [`pinned_runs`]). Under (b) every
    /// walk moves past its lazy seed, whose trajectory has two entries.
    /// Any change to the RNG schedule, the Metropolis walk or its probe
    /// accounting moves these values.
    #[test]
    fn seeded_walks_are_pinned() {
        let cold = |evaluations, queries_repriced| Pin {
            picked: vec![5, 11],
            trajectory_bits: vec![0x40c5f84000000000, 0x40865ac28f5c28f6, 0x40859ac28f5c28f6],
            evaluations,
            queries_repriced,
            total_bytes: 18_841_600,
            final_total_bits: 0x40859ac28f5c28f6,
        };
        let warm_prefix = [0x40af4f9b33695430, 0x40af1f9b33695430, 0x40a22b25eba02f37];
        assert_eq!(
            pinned_runs(StrategyKind::Anneal { seed: 1 }),
            [
                cold(1_266, 1_346),
                Pin {
                    picked: vec![5, 11],
                    trajectory_bits: [&warm_prefix[..], &[0x40865ac28f5c28f6, 0x40859ac28f5c28f6]]
                        .concat(),
                    evaluations: 1_606,
                    queries_repriced: 807,
                    total_bytes: 18_841_600,
                    final_total_bits: 0x40859ac28f5c28f6,
                },
            ]
        );
        assert_eq!(
            pinned_runs(StrategyKind::Anneal { seed: 7 }),
            [
                cold(1_299, 1_328),
                Pin {
                    picked: vec![5, 6, 11],
                    trajectory_bits: [&warm_prefix[..], &[0x40859ac28f5c28f6]].concat(),
                    evaluations: 1_594,
                    queries_repriced: 828,
                    total_bytes: 18_923_520,
                    final_total_bits: 0x40859ac28f5c28f6,
                },
            ]
        );
        assert_eq!(
            pinned_runs(StrategyKind::Anneal { seed: 0xDEAD }),
            [
                cold(1_366, 1_342),
                Pin {
                    picked: vec![5, 8, 9, 11],
                    trajectory_bits: [&warm_prefix[..], &[0x40859ac28f5c28f6]].concat(),
                    evaluations: 1_617,
                    queries_repriced: 811,
                    total_bytes: 19_054_592,
                    final_total_bits: 0x40859ac28f5c28f6,
                },
            ]
        );
    }

    #[test]
    fn acceptance_rule_edge_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(accept(10.0, 5.0, 0.1, &mut rng), "improvement rejected");
        assert!(accept(10.0, 10.0, 0.1, &mut rng), "equal-cost rejected");
        assert!(
            accept(f64::INFINITY, 5.0, 0.1, &mut rng),
            "inf → finite rejected"
        );
        assert!(!accept(10.0, f64::NAN, 0.1, &mut rng), "NaN accepted");
        assert!(
            !accept(10.0, f64::INFINITY, 0.1, &mut rng),
            "finite → inf accepted"
        );
        assert!(
            !accept(10.0, 11.0, 0.0, &mut rng),
            "worsening accepted at zero temperature"
        );
    }
}
