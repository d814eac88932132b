//! E4 — Figure 4/5 cache construction and access-cost collection, as
//! counted work: optimizer calls, paths added and path-arena nodes, each
//! summed over the calls a builder makes. The wall clocks and speedups
//! are `exp_all`'s printout only.

use pinum_bench::experiments::cache_construction::run;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let c = run();
    assert_eq!(c.candidates, 151);
    for r in &c.rows {
        // One INUM call per IOC plus the two extreme-access-cost calls,
        // against PINUM's one; the same for access-cost collection.
        assert_eq!(
            r.inum_cache.optimizer_calls as u64,
            r.inum_cache.ioc_count + 2,
            "{}",
            r.name
        );
        assert_eq!(r.pinum_cache.optimizer_calls, 1, "{}", r.name);
        assert_eq!(
            (
                r.inum_access.optimizer_calls,
                r.pinum_access.optimizer_calls
            ),
            (80, 1),
            "{}",
            r.name
        );
    }

    // (query, IOCs, INUM paths added, INUM arena nodes, PINUM paths added,
    // PINUM arena nodes)
    let work: Vec<_> = c
        .rows
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.inum_cache.ioc_count,
                r.inum_cache.paths_added,
                r.inum_cache.arena_nodes,
                r.pinum_cache.paths_added,
                r.pinum_cache.arena_nodes,
            )
        })
        .collect();
    let expected = [
        ("Q1", 6, 91, 133, 34, 69),
        ("Q2", 6, 89, 131, 34, 69),
        ("Q3", 18, 575, 932, 209, 378),
        ("Q4", 16, 529, 880, 195, 364),
        ("Q5", 48, 3_091, 5_643, 971, 1_593),
        ("Q6", 54, 2_642, 4_643, 800, 1_300),
        ("Q7", 162, 15_048, 26_254, 3_196, 4_553),
        ("Q8", 128, 17_796, 30_819, 4_137, 5_931),
        ("Q9", 360, 103_477, 204_943, 16_163, 22_203),
        ("Q10", 360, 122_092, 232_966, 16_355, 21_784),
    ]
    .map(|(q, iocs, ia, in_, pa, pn)| (q.to_string(), iocs, ia, in_, pa, pn));
    assert_eq!(work, expected);
}
