//! A1 — §V-D subset-cost sweep on and off: arena nodes, finished paths
//! and exported plans per query, and the same winner either way.

use pinum_bench::experiments::pruning::run;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let rows = run();
    for r in &rows {
        assert_eq!(
            r.pruned.winner_cost.to_bits(),
            r.unpruned.winner_cost.to_bits(),
            "{}: the sweep changed the winner",
            r.name
        );
    }
    // (query, [arena nodes], [final paths], [exported plans]), each
    // [pruned, unpruned].
    let counts: Vec<_> = rows
        .iter()
        .map(|r| {
            let (a, b) = (&r.pruned, &r.unpruned);
            (
                r.name.clone(),
                [a.stats.arena_size, b.stats.arena_size],
                [a.stats.final_paths, b.stats.final_paths],
                [a.exported, b.exported],
            )
        })
        .collect();
    let expected = [
        ("Q1", [69, 83], [3, 6], [3, 6]),
        ("Q2", [69, 83], [3, 6], [3, 6]),
        ("Q3", [378, 608], [4, 18], [4, 18]),
        ("Q4", [364, 592], [5, 16], [5, 16]),
        ("Q5", [1_593, 3_169], [15, 48], [15, 48]),
        ("Q6", [1_300, 2_797], [4, 54], [4, 54]),
        ("Q7", [4_553, 11_605], [21, 162], [21, 162]),
        ("Q8", [5_931, 14_864], [27, 128], [27, 128]),
        ("Q9", [22_203, 65_945], [106, 360], [106, 360]),
        ("Q10", [21_784, 75_974], [70, 360], [70, 360]),
    ]
    .map(|(q, arena, fin, exp)| (q.to_string(), arena, fin, exp));
    assert_eq!(counts, expected);
}
