//! A5 — pluggable search strategies over the shared workload model.
//!
//! One flattened `WorkloadModel` (one "optimizer call cache" in the
//! paper's framing) prices *any* configuration, so the search policy on
//! top is interchangeable. This experiment runs all four strategies over
//! the same 200-query × ≤400-candidate star-workload model and compares
//! probe counts, wall time, and final workload cost, with the acceptance
//! gates of the PR:
//!
//! * **lazy greedy** must reproduce eager greedy's pick sequence and cost
//!   trajectory bit-for-bit while performing ≤ 50 % of its candidate
//!   probes (the lazy-bound invariant in action);
//! * **swap hill climbing** and **annealing** must never end with a
//!   higher final workload cost than greedy (both are greedy-seeded).
//!
//! Also reports workload-level candidate merging (the prefix-subsumed
//! pool shrink applied before any pricing) and how much work one add
//! probe does: the share of the workload its inverted-index entry
//! touches, and the share of those queries whose cost actually changes.

use crate::fixtures::{build_scale_fixture, CANDIDATE_CAP, QUERIES, SCHEMA_SEED, WORKLOAD_SEED};
use crate::json::{emit, json_array, JsonObject};
use crate::table::{fmt_duration, TextTable};
use pinum_advisor::candidates::merge_prefix_subsumed;
use pinum_advisor::greedy::{GreedyOptions, GreedyResult};
use pinum_advisor::search::{Anneal, EagerGreedy, LazyGreedy, SearchStrategy, SwapHillClimb};
use pinum_core::{Probe, Selection, WorkloadModel};
use std::time::{Duration, Instant};

/// Fixed annealing seed so the experiment is reproducible.
pub const ANNEAL_SEED: u64 = 0xC0FFEE;

/// The probe-work snapshot selects every `SELECTED_EVERY`-th candidate —
/// a mid-search state, the kind every strategy probes from.
const SELECTED_EVERY: usize = 50;

/// One strategy's scorecard.
pub struct StrategyOutcome {
    pub name: &'static str,
    pub result: GreedyResult,
    pub wall: Duration,
}

pub struct SearchStrategiesOutcome {
    pub queries: usize,
    pub candidates: usize,
    pub merged_away: usize,
    pub strategies: Vec<StrategyOutcome>,
    /// Lazy greedy reproduced eager greedy exactly.
    pub lazy_identical: bool,
    /// lazy probes / eager probes (acceptance: ≤ 0.5).
    pub probe_fraction: f64,
}

fn run_strategy(
    strategy: &dyn SearchStrategy,
    pool: &pinum_core::CandidatePool,
    model: &WorkloadModel,
    opts: &GreedyOptions,
) -> StrategyOutcome {
    let start = Instant::now();
    let result = strategy.search(pool, model, opts);
    StrategyOutcome {
        name: strategy.name(),
        result,
        wall: start.elapsed(),
    }
}

pub fn run(scale: f64) -> SearchStrategiesOutcome {
    println!(
        "A5: search strategies — {QUERIES} queries, candidate cap {CANDIDATE_CAP}, \
         schema seed {SCHEMA_SEED:#x}, workload seed {WORKLOAD_SEED:#x}, \
         anneal seed {ANNEAL_SEED:#x}\n"
    );
    let build_start = Instant::now();
    let (_schema, _workload, pool, models) = build_scale_fixture(scale, QUERIES, CANDIDATE_CAP);
    let model_start = Instant::now();
    let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
    let flatten_wall = model_start.elapsed();
    println!(
        "built {} per-query PINUM models over {} candidates in {} \
         (workload-model flattening: {})",
        models.len(),
        pool.len(),
        fmt_duration(build_start.elapsed()),
        fmt_duration(flatten_wall),
    );
    // Workload-level merging is only reported: the strategies search the
    // unmerged pool.
    let (_merged_pool, merged_away) = merge_prefix_subsumed(&pool);
    println!(
        "candidate merging would drop {merged_away} of {} prefix-subsumed candidates",
        pool.len()
    );

    // Probe work: one add probe per non-member of the snapshot selection.
    let selection = Selection::from_ids(
        pool.len(),
        &(0..pool.len()).step_by(SELECTED_EVERY).collect::<Vec<_>>(),
    );
    let state = model.price_full(&selection);
    let mut scratch = Vec::new();
    let (mut probes_per_pass, mut affected_total, mut changed_total) = (0usize, 0usize, 0usize);
    for cand in (0..pool.len()).filter(|&c| !selection.contains(c)) {
        model.price_probe_into(&state, &selection, Probe::Add { cand }, &mut scratch);
        probes_per_pass += 1;
        affected_total += model.affected(cand).len();
        changed_total += scratch.len();
    }
    let affected_fraction =
        affected_total as f64 / (probes_per_pass * model.query_count()).max(1) as f64;
    let changed_fraction = changed_total as f64 / affected_total.max(1) as f64;
    println!(
        "an add probe touches {:.1}% of the workload ({:.1}% of touched queries change cost)\n",
        affected_fraction * 100.0,
        changed_fraction * 100.0,
    );

    let budget = (5.0 * 1024.0 * 1024.0 * 1024.0 * scale) as u64;
    let gopts = GreedyOptions {
        budget_bytes: budget,
        benefit_per_byte: false,
    };

    let eager = run_strategy(&EagerGreedy, &pool, &model, &gopts);
    let lazy = run_strategy(&LazyGreedy, &pool, &model, &gopts);
    let swap = run_strategy(&SwapHillClimb::default(), &pool, &model, &gopts);
    let anneal = run_strategy(&Anneal::with_seed(ANNEAL_SEED), &pool, &model, &gopts);

    let lazy_identical = eager.result.picked == lazy.result.picked
        && eager.result.cost_trajectory == lazy.result.cost_trajectory
        && eager.result.total_bytes == lazy.result.total_bytes;
    let probe_fraction = lazy.result.evaluations as f64 / eager.result.evaluations.max(1) as f64;
    let greedy_final = *eager.result.cost_trajectory.last().unwrap();

    let strategies = vec![eager, lazy, swap, anneal];
    let mut table = TextTable::new(vec![
        "strategy",
        "wall",
        "probes",
        "queries repriced",
        "picks",
        "final cost",
        "vs greedy",
    ]);
    for s in &strategies {
        let fin = *s.result.cost_trajectory.last().unwrap();
        table.row(vec![
            s.name.to_string(),
            fmt_duration(s.wall),
            s.result.evaluations.to_string(),
            s.result.queries_repriced.to_string(),
            s.result.picked.len().to_string(),
            format!("{fin:.0}"),
            format!("{:+.2}%", (fin / greedy_final - 1.0) * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!(
        "lazy identical to eager: {lazy_identical}; lazy probe fraction: \
         {probe_fraction:.2} (acceptance: ≤ 0.50)\n"
    );

    emit(
        "search_strategies",
        &JsonObject::new()
            .int("queries", QUERIES as u64)
            .int("candidates", pool.len() as u64)
            .int("merged_away", merged_away as u64)
            .num("scale", scale)
            .int("budget_bytes", budget)
            .bool("lazy_identical", lazy_identical)
            .num("lazy_probe_fraction", probe_fraction)
            .int("probes_per_pass", probes_per_pass as u64)
            .num("affected_fraction", affected_fraction)
            .num("changed_fraction", changed_fraction)
            .raw(
                "strategies",
                json_array(strategies.iter().map(|s| {
                    JsonObject::new()
                        .str("name", s.name)
                        .num("wall_seconds", s.wall.as_secs_f64())
                        .int("probes", s.result.evaluations as u64)
                        .int("queries_repriced", s.result.queries_repriced as u64)
                        .int("picks", s.result.picked.len() as u64)
                        .num("final_cost", *s.result.cost_trajectory.last().unwrap())
                        .int("total_bytes", s.result.total_bytes)
                        .render()
                })),
            ),
    );

    // --- Acceptance gates (also asserted by the exp binary and CI). ---
    assert!(
        lazy_identical,
        "lazy greedy diverged from eager greedy — the stale-bound invariant broke"
    );
    assert!(
        probe_fraction <= 0.5,
        "lazy greedy probed {probe_fraction:.2} of eager's evaluations (acceptance: ≤ 0.5)"
    );
    for s in &strategies {
        let fin = *s.result.cost_trajectory.last().unwrap();
        assert!(
            fin <= greedy_final * (1.0 + 1e-12),
            "{} ended at {fin}, worse than greedy's {greedy_final}",
            s.name
        );
    }

    SearchStrategiesOutcome {
        queries: models.len(),
        candidates: pool.len(),
        merged_away,
        strategies,
        lazy_identical,
        probe_fraction,
    }
}
