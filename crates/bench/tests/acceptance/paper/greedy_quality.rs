//! A3 — greedy vs exhaustive selection on three instances small enough to
//! enumerate: the final workload costs of both.

use pinum_bench::experiments::greedy_quality::run;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let rows: Vec<_> = run()
        .iter()
        .map(|r| {
            (
                r.queries,
                r.candidates,
                r.budget_mb,
                r.greedy_cost.to_bits(),
                r.optimal_cost.to_bits(),
            )
        })
        .collect();
    // (queries, candidates, budget MB, greedy cost, optimal cost): greedy
    // is optimal on all three (1 509.39, 2 881.06, 2 881.06).
    assert_eq!(
        rows,
        [
            (2, 14, 64, 0x4097_9594_57fb_5fc0, 0x4097_9594_57fb_5fc0),
            (3, 14, 128, 0x40a6_821f_dd1a_1812, 0x40a6_821f_dd1a_1812),
            (3, 14, 512, 0x40a6_821f_dd1a_1812, 0x40a6_821f_dd1a_1812),
        ]
    );
}
