//! E1 — §IV plan redundancy: interesting-order combinations (= classic
//! INUM's calls), INUM's unique per-IOC winners and the plans PINUM's one
//! call keeps.

use pinum_bench::experiments::redundancy::{run, RedundancyRow};

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let r = run();
    let row = |x: &RedundancyRow| {
        (
            x.query.clone(),
            x.tables,
            x.iocs,
            x.inum_unique_winners,
            x.pinum_useful_plans,
        )
    };

    // The paper reads 648 IOCs and 64 unique plans for TPC-H Q5. INUM's
    // unique winners are 1 on every row here (see the experiment's doc).
    assert_eq!(row(&r.tpch_q5), ("TPC-H Q5".into(), 6, 648, 1, 35));

    // (query, tables, IOCs, INUM unique winners, PINUM useful plans)
    let star: Vec<_> = r.star.iter().map(row).collect();
    let expected = [
        ("Q1", 2, 6, 1, 3),
        ("Q2", 2, 6, 1, 3),
        ("Q3", 3, 18, 1, 4),
        ("Q4", 3, 16, 1, 5),
        ("Q5", 4, 48, 1, 15),
        ("Q6", 4, 54, 1, 4),
        ("Q7", 5, 162, 1, 21),
        ("Q8", 5, 128, 1, 27),
        ("Q9", 6, 360, 1, 106),
        ("Q10", 6, 360, 1, 70),
    ]
    .map(|(q, t, i, u, p)| (q.to_string(), t, i, u, p));
    assert_eq!(star, expected);

    // Star totals (the paper's §VI-A: 266 IOCs, 43 useful plans).
    let iocs: u64 = r.star.iter().map(|x| x.iocs).sum();
    let plans: usize = r.star.iter().map(|x| x.pinum_useful_plans).sum();
    assert_eq!((iocs, plans), (1_158, 258));
}
