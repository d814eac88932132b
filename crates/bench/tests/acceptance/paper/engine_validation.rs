//! V1 — the mini engine executes six queries under no indexes and under
//! their covering configuration: row estimates against actual rows, and
//! the two plans' results agree.

use pinum_bench::experiments::engine_validation::run;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let rows: Vec<_> = run()
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.estimated_rows,
                r.actual_rows,
                r.plans_agree,
            )
        })
        .collect();
    // (query, estimated rows, actual rows, plans agree)
    let expected = [
        ("Q1", 100.0, 103, true),
        ("Q2", 100.0, 95, true),
        ("Q3", 100.0, 120, true),
        ("Q4", 100.0, 120, true),
        ("Q5", 1.0, 0, true),
        ("Q6", 100.0, 103, true),
    ]
    .map(|(q, est, actual, agree)| (q.to_string(), est, actual, agree));
    assert_eq!(rows, expected);
}
