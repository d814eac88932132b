//! Pricing-kernel microbenchmark: the SoA delta kernel vs the frozen
//! nested reference engine on the 200-query × 400-candidate scale
//! workload.
//!
//! The tentpole claim of the SoA restructuring is that a delta probe is
//! no longer O(workload): the inverted index and bloom/footprint
//! prefilter bound the work to the queries whose arms mention the
//! candidate, the branchless min-scan prices each of those from two
//! contiguous arrays, and the pairwise sum tree turns the total update
//! into O(changed · log n) splices instead of an O(n) re-sum. This
//! experiment replays an identical schedule of `price_delta` probes
//! through both engines, verifies they price every query to the same
//! bits, and reports the throughput ratio (acceptance: ≥ 3×).

use crate::experiments::advisor_scale::{build_scale_fixture, CANDIDATE_CAP, QUERIES};
use crate::json::{emit, JsonObject};
use crate::table::{fmt_duration, TextTable};
use pinum_core::{pairwise_total, Probe, ReferenceModel, Selection, WorkloadModel};
use std::time::{Duration, Instant};

/// Probe schedule: every candidate outside the base selection, from a
/// selection of evenly spaced members — a mid-search snapshot, the state
/// every advisor strategy probes from.
const SELECTED_EVERY: usize = 50;

pub struct KernelOutcome {
    pub queries: usize,
    pub candidates: usize,
    pub probes_per_pass: usize,
    pub reference_wall: Duration,
    pub kernel_wall: Duration,
    pub reference_passes: usize,
    pub kernel_passes: usize,
    pub speedup: f64,
    pub affected_fraction: f64,
    pub changed_fraction: f64,
}

/// Times `passes` full probe sweeps, returning the wall plus a checksum
/// that keeps the optimizer from discarding the priced totals.
fn sweep<F: FnMut() -> f64>(passes: usize, mut pass: F) -> (Duration, f64) {
    let start = Instant::now();
    let mut checksum = 0.0;
    for _ in 0..passes {
        checksum += pass();
    }
    (start.elapsed(), checksum)
}

pub fn run(scale: f64) -> KernelOutcome {
    println!(
        "K1: pricing-kernel microbench — {QUERIES} queries, candidate cap {CANDIDATE_CAP}, \
         SoA delta kernel vs nested reference engine\n"
    );
    let build_start = Instant::now();
    let (_schema, _workload, pool, models) = build_scale_fixture(scale, QUERIES, CANDIDATE_CAP);
    let model = WorkloadModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
    let reference = ReferenceModel::build(pool.len(), models.iter().map(|(c, a)| (c, a)));
    println!(
        "built both engines over {} queries × {} candidates in {}",
        model.query_count(),
        pool.len(),
        fmt_duration(build_start.elapsed())
    );

    let selection = Selection::from_ids(
        pool.len(),
        &(0..pool.len()).step_by(SELECTED_EVERY).collect::<Vec<_>>(),
    );
    let state = model.price_full(&selection);
    let (ref_costs, _) = reference.price_full(&selection);

    // Equivalence first: the kernel must price every query to the same
    // bits as the frozen nested engine before its speed means anything.
    for (q, (a, b)) in state.per_query().iter().zip(&ref_costs).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "query {q} diverged between engines ({a} vs {b})"
        );
    }
    assert_eq!(
        state.total().to_bits(),
        pairwise_total(&ref_costs).to_bits(),
        "sum tree total is not the canonical pairwise shape"
    );

    let probes: Vec<usize> = (0..pool.len())
        .filter(|&c| !selection.contains(c))
        .collect();

    // Prefilter bookkeeping: how much of the workload a probe touches at
    // all (inverted index) and how much of that actually changes cost
    // (changed-list filtering).
    let mut scratch = Vec::new();
    let mut affected_total = 0usize;
    let mut changed_total = 0usize;
    for &c in &probes {
        model.price_probe_into(&state, &selection, Probe::Add { cand: c }, &mut scratch);
        affected_total += model.affected(c).len();
        changed_total += scratch.len();
    }
    let affected_fraction =
        affected_total as f64 / (probes.len() * model.query_count()).max(1) as f64;
    let changed_fraction = changed_total as f64 / affected_total.max(1) as f64;

    // Calibrate pass counts so each timed section runs long enough to be
    // stable on a single core, then sweep the identical probe schedule
    // through both engines.
    let (ref_once, _) = sweep(1, || {
        let mut total = 0.0;
        for &c in &probes {
            total += reference.price_delta_into(&ref_costs, &selection, c, &mut scratch);
        }
        total
    });
    let reference_passes = (0.3 / ref_once.as_secs_f64().max(1e-6)).ceil().max(1.0) as usize;
    let (reference_wall, ref_check) = sweep(reference_passes, || {
        let mut total = 0.0;
        for &c in &probes {
            total += reference.price_delta_into(&ref_costs, &selection, c, &mut scratch);
        }
        total
    });

    let (kernel_once, _) = sweep(1, || {
        let mut total = 0.0;
        for &c in &probes {
            total += model
                .price_probe_into(&state, &selection, Probe::Add { cand: c }, &mut scratch)
                .total;
        }
        total
    });
    let kernel_passes = (0.3 / kernel_once.as_secs_f64().max(1e-6)).ceil().max(1.0) as usize;
    let (kernel_wall, kernel_check) = sweep(kernel_passes, || {
        let mut total = 0.0;
        for &c in &probes {
            total += model
                .price_probe_into(&state, &selection, Probe::Add { cand: c }, &mut scratch)
                .total;
        }
        total
    });
    assert!(
        ref_check.is_finite() == kernel_check.is_finite(),
        "engines disagree on workload priceability"
    );

    let ref_throughput = (reference_passes * probes.len()) as f64 / reference_wall.as_secs_f64();
    let kernel_throughput = (kernel_passes * probes.len()) as f64 / kernel_wall.as_secs_f64();
    let speedup = kernel_throughput / ref_throughput.max(1e-9);

    let mut table = TextTable::new(vec!["engine", "probes/s", "passes", "wall", "per-probe"]);
    table.row(vec![
        "nested reference".to_string(),
        format!("{ref_throughput:.0}"),
        reference_passes.to_string(),
        fmt_duration(reference_wall),
        fmt_duration(reference_wall / (reference_passes * probes.len()) as u32),
    ]);
    table.row(vec![
        "SoA delta kernel".to_string(),
        format!("{kernel_throughput:.0}"),
        kernel_passes.to_string(),
        fmt_duration(kernel_wall),
        fmt_duration(kernel_wall / (kernel_passes * probes.len()) as u32),
    ]);
    println!("{}", table.render());
    println!(
        "probe touches {:.1}% of the workload ({:.1}% of touched queries change cost); \
         delta throughput {speedup:.1}x the nested engine (acceptance: ≥3x)\n",
        affected_fraction * 100.0,
        changed_fraction * 100.0,
    );

    emit(
        "price_kernel",
        &JsonObject::new()
            .int("queries", model.query_count() as u64)
            .int("candidates", pool.len() as u64)
            .num("scale", scale)
            .int("probes_per_pass", probes.len() as u64)
            .num("reference_probes_per_second", ref_throughput)
            .num("kernel_probes_per_second", kernel_throughput)
            .num("speedup", speedup)
            .num("affected_fraction", affected_fraction)
            .num("changed_fraction", changed_fraction),
    );

    KernelOutcome {
        queries: model.query_count(),
        candidates: pool.len(),
        probes_per_pass: probes.len(),
        reference_wall,
        kernel_wall,
        reference_passes,
        kernel_passes,
        speedup,
        affected_fraction,
        changed_fraction,
    }
}
