//! Deterministic simulated annealing over the selection space, driven
//! entirely by incremental deltas: a proposal *is* a [`Probe`] (add,
//! drop, or swap), proposals are drawn in fixed-size blocks against the
//! block-start state and priced as one
//! [`WorkloadModel::price_delta_batch`], and an accepted one is
//! re-derived exactly with [`WorkloadModel::price_probe_into`] before it
//! is spliced. The RNG is the in-tree `rand` shim seeded explicitly and
//! its consumption schedule is fixed by the block size, so a run is a
//! pure function of `(pool, model, options, seed)`.

use super::{apply_changed, debug_assert_state_matches, LazyGreedy, SearchScope, SearchStrategy};
use crate::greedy::{GreedyOptions, GreedyResult};
use pinum_core::{CandidatePool, Probe, Selection, WorkloadModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Proposals drawn (and batch-priced) per annealing block. The constant
/// fixes the proposal schedule, the RNG stream, and every metric.
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

/// Simulated annealing seeded from [`LazyGreedy`]. Proposes random
/// add/drop/swap moves, accepts improving moves always and worsening moves
/// with probability `exp(-Δrel / T)` under a geometric cooling schedule,
/// and returns the **best selection ever visited** — so the final cost is
/// never above the greedy seed's.
///
/// Under a [`SearchScope::query_mask`] the Metropolis rule evaluates the
/// *masked* delta, so a move that helps the masked queries while
/// regressing the rest can be accepted — that is ordinary annealing
/// (worsening moves are allowed by design), and the maintained state and
/// best-ever tracking always use the exact unmasked totals, so the
/// returned selection is the best true-cost state the walk visited.
#[derive(Debug, Clone, Copy)]
pub struct Anneal {
    /// RNG seed; the whole run is determined by it.
    pub seed: u64,
}

impl Anneal {
    /// The annealing walk with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }
}

impl Default for Anneal {
    fn default() -> Self {
        Self::with_seed(0x5EED)
    }
}

impl SearchStrategy for Anneal {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn search_scoped(
        &self,
        pool: &CandidatePool,
        model: &WorkloadModel,
        opts: &GreedyOptions,
        warm: &Selection,
        scope: &SearchScope<'_>,
    ) -> GreedyResult {
        let seed_result = LazyGreedy.search_scoped(pool, model, opts, warm, scope);
        let mut selection = seed_result.selection.clone();
        let mut used_bytes = seed_result.total_bytes;
        let mut evaluations = seed_result.evaluations;
        let mut queries_repriced = seed_result.queries_repriced;
        let full_repricings = seed_result.full_repricings;
        let mut trajectory = seed_result.cost_trajectory.clone();

        // The greedy seed's exact final state carries straight into the
        // annealing walk — no re-pricing between seed and walk.
        let mut state = seed_result
            .final_state
            .clone()
            .expect("lazy greedy tracks state");

        let mut best_selection = selection.clone();
        let mut best_state = state.clone();
        let mut best_cost = state.total();
        let mut best_bytes = used_bytes;

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut temp = INITIAL_TEMP;
        let mut scratch = Vec::new();

        if pool.is_empty() {
            return seed_result;
        }

        // The walk runs in blocks: a block's proposals are all drawn (and
        // batch-priced) against the block-start state, then walked
        // serially through the Metropolis rule in draw order. The first
        // acceptance applies its move and discards the block's remaining
        // proposals — their deltas (and draw-time validity) are stale
        // against the new state. Discarded proposals are **refunded**:
        // only walked proposals are charged against `ITERATIONS` and
        // advance the temperature, so the count keeps its serial meaning —
        // the number of states the Metropolis chain actually visits —
        // at every acceptance rate. RNG consumption is: all of a block's
        // proposal draws first, then one acceptance draw per walked
        // finite-worsening proposal — a fixed schedule (though not a
        // one-proposal-at-a-time walk's stream: discarded proposals
        // consumed draws).
        let mut moves: Vec<Option<Probe>> = Vec::with_capacity(BLOCK);
        let mut probes: Vec<Probe> = Vec::with_capacity(BLOCK);
        let mut remaining = ITERATIONS;
        while remaining > 0 {
            let block_len = BLOCK.min(remaining);
            let members: Vec<usize> = selection.ids().collect();
            moves.clear();
            probes.clear();
            for _ in 0..block_len {
                // Propose a move; invalid proposals still consume RNG
                // draws so the stream (and thus the run) stays
                // deterministic.
                let kind = rng.gen_range(0..3u32);
                let mv: Option<Probe> = match kind {
                    // Add a random unselected in-scope candidate that fits
                    // the budget (out-of-scope draws are invalid
                    // proposals, so the RNG stream — and thus an unmasked
                    // run — is unchanged).
                    0 => {
                        let cand = rng.gen_range(0..pool.len());
                        let bytes = pool.index(cand).size().total_bytes();
                        (!selection.contains(cand)
                            && scope.allows(cand)
                            && used_bytes + bytes <= opts.budget_bytes)
                            .then_some(Probe::Add { cand })
                    }
                    // Drop a random member.
                    1 => (!members.is_empty()).then(|| Probe::Drop {
                        cand: members[rng.gen_range(0..members.len())],
                    }),
                    // Swap a random member for a random non-member.
                    _ => {
                        if members.is_empty() {
                            None
                        } else {
                            let drop = members[rng.gen_range(0..members.len())];
                            let add = rng.gen_range(0..pool.len());
                            let fits = !selection.contains(add)
                                && scope.allows(add)
                                && used_bytes - pool.index(drop).size().total_bytes()
                                    + pool.index(add).size().total_bytes()
                                    <= opts.budget_bytes;
                            fits.then_some(Probe::Swap { add, drop })
                        }
                    }
                };
                probes.extend(mv);
                moves.push(mv);
            }

            let deltas = model.price_delta_batch(&state, &selection, &probes, scope.query_mask);
            let mut pi = 0usize;
            let mut walked = 0usize;
            for entry in &moves {
                // Each walked proposal — valid or not — spends one
                // iteration and one cooling step, exactly like the serial
                // walk; the block's unwalked remainder is refunded.
                walked += 1;
                temp *= COOLING;
                let Some(mv) = *entry else { continue };
                let delta = deltas[pi];
                pi += 1;
                evaluations += 1;
                queries_repriced += delta.repriced;

                if !accept(state.total(), delta.total, temp, &mut rng) {
                    continue;
                }
                // Accepted: re-derive the move's exact **unmasked** delta
                // serially and splice it, so the maintained state stays
                // bit-identical to `price_full` even when a query mask
                // ranked the proposals. O(affected), never a full reprice.
                let exact = model.price_probe_into(&state, &selection, mv, &mut scratch);
                evaluations += 1;
                queries_repriced += exact.repriced;
                match mv {
                    Probe::Add { cand } => {
                        selection.insert(cand);
                        used_bytes += pool.index(cand).size().total_bytes();
                    }
                    Probe::Drop { cand } => {
                        selection.remove(cand);
                        used_bytes -= pool.index(cand).size().total_bytes();
                    }
                    Probe::Swap { add, drop } => {
                        selection.remove(drop);
                        selection.insert(add);
                        used_bytes = used_bytes - pool.index(drop).size().total_bytes()
                            + pool.index(add).size().total_bytes();
                    }
                }
                apply_changed(&mut state, &scratch, exact.total);
                debug_assert_state_matches(model, &selection, &state);
                if state.total() < best_cost {
                    best_cost = state.total();
                    best_selection = selection.clone();
                    best_state = state.clone();
                    best_bytes = used_bytes;
                    trajectory.push(best_cost);
                }
                break; // discard the block's stale remainder
            }
            // Charge only what was walked (≥ 1, so the loop terminates);
            // the discarded remainder is redrawn next block.
            remaining -= walked;
        }

        GreedyResult {
            // Pick order is meaningless after annealing; report the final
            // set in ascending id order.
            picked: best_selection.ids().collect(),
            selection: best_selection,
            cost_trajectory: trajectory,
            total_bytes: best_bytes,
            evaluations,
            queries_repriced,
            full_repricings,
            final_state: Some(best_state),
        }
    }
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
    use super::super::tests::fixture;
    use super::*;

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let (pool, model) = fixture();
        let opts = GreedyOptions {
            budget_bytes: 256 << 20,
            benefit_per_byte: false,
        };
        let a = Anneal::with_seed(42).search(&pool, &model, &opts);
        let b = Anneal::with_seed(42).search(&pool, &model, &opts);
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
                let greedy = LazyGreedy.search(&pool, &model, &opts);
                let anneal = Anneal::with_seed(seed).search(&pool, &model, &opts);
                let g = *greedy.cost_trajectory.last().unwrap();
                let a = *anneal.cost_trajectory.last().unwrap();
                assert!(a <= g, "seed {seed}: anneal {a} worse than greedy {g}");
                assert!(anneal.total_bytes <= opts.budget_bytes);
            }
        }
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
