//! Pluggable search strategies over the shared workload model.
//!
//! One flattened `WorkloadModel` (one "optimizer call cache" in the
//! paper's framing) prices *any* configuration, so the search policy on
//! top is interchangeable. All four strategies run over the same
//! 200-query × 400-candidate star-workload model:
//!
//! * **lazy greedy** must reproduce eager greedy's pick sequence and cost
//!   trajectory bit for bit while performing ≤ 50 % of its candidate
//!   probes (the lazy-bound invariant in action);
//! * **swap hill climbing** and **annealing** must never end with a
//!   higher final workload cost than greedy (both are greedy-seeded).
//!
//! It also pins how much work one add probe does: the share of the
//! workload its inverted-index entry touches, and the share of those
//! queries whose cost actually changes.

use crate::fixture::{models, star_fixture, BUDGET};
use pinum_advisor::greedy::{GreedyOptions, GreedyResult};
use pinum_advisor::search::{Anneal, EagerGreedy, LazyGreedy, SearchStrategy, SwapHillClimb};
use pinum_core::{Probe, Selection, WorkloadModel};

/// Fixed annealing seed so the test is reproducible.
const ANNEAL_SEED: u64 = 0xC0FFEE;

/// The probe-work snapshot selects every `SELECTED_EVERY`-th candidate —
/// a mid-search state, the kind every strategy probes from.
const SELECTED_EVERY: usize = 50;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let fx = star_fixture();
    let pool = &fx.pool;
    let models = models(&fx.schema, &fx.queries, pool);
    let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));

    // Probe work: one add probe per non-member of the snapshot selection.
    let selection = Selection::from_ids(
        pool.len(),
        &(0..pool.len()).step_by(SELECTED_EVERY).collect::<Vec<_>>(),
    );
    let state = model.price_full(&selection);
    let mut scratch = Vec::new();
    let (mut probes_per_pass, mut affected, mut changed) = (0usize, 0usize, 0usize);
    for cand in (0..pool.len()).filter(|&c| !selection.contains(c)) {
        model.price_probe_into(&state, &selection, Probe::Add { cand }, &mut scratch);
        probes_per_pass += 1;
        affected += model.affected(cand).len();
        changed += scratch.len();
    }
    // An add probe touches 17 971 / (392 × 200) ≈ 22.9 % of the workload,
    // and 5 219 / 17 971 ≈ 29.0 % of the touched queries change cost.
    assert_eq!(model.query_count(), 200);
    assert_eq!((probes_per_pass, affected, changed), (392, 17_971, 5_219));

    let gopts = GreedyOptions {
        budget_bytes: BUDGET,
        benefit_per_byte: false,
    };
    let strategies: [&dyn SearchStrategy; 4] = [
        &EagerGreedy,
        &LazyGreedy,
        &SwapHillClimb::default(),
        &Anneal::with_seed(ANNEAL_SEED),
    ];
    let runs: Vec<GreedyResult> = strategies
        .iter()
        .map(|s| s.search(pool, &model, &gopts))
        .collect();
    let (eager, lazy) = (&runs[0], &runs[1]);
    let final_cost = |r: &GreedyResult| *r.cost_trajectory.last().unwrap();

    assert!(
        lazy.picked == eager.picked
            && lazy.cost_trajectory == eager.cost_trajectory
            && lazy.total_bytes == eager.total_bytes,
        "lazy greedy diverged from eager greedy — the stale-bound invariant broke"
    );
    assert!(2 * lazy.evaluations <= eager.evaluations);
    for (s, r) in strategies.iter().zip(&runs) {
        assert!(
            final_cost(r) <= final_cost(eager) * (1.0 + 1e-12),
            "{} ended at {}, worse than greedy's {}",
            s.name(),
            final_cost(r),
            final_cost(eager)
        );
    }

    // Eager, lazy, swap, anneal: lazy probes 544 / 1 875 ≈ 0.290 of eager's.
    let probes: Vec<_> = runs.iter().map(|r| r.evaluations).collect();
    assert_eq!(probes, [1_875, 544, 2_336, 2_169]);
    let picks: Vec<_> = runs.iter().map(|r| r.picked.len()).collect();
    assert_eq!(picks, [8; 4]);
    // All four end at 137 587 758.019 846 68.
    let final_bits: Vec<_> = runs.iter().map(|r| final_cost(r).to_bits()).collect();
    assert_eq!(final_bits, [0x41a0_66d8_5c0a_2958; 4]);
}
