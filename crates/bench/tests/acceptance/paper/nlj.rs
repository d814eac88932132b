//! A2 — nested-loop plan caching: per query, the NLJ plans cached and
//! the cache's mean relative error with and without them over 200 random
//! atomic configurations.

use pinum_bench::experiments::nlj::run;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let rows: Vec<_> = run()
        .iter()
        .map(|r| {
            (
                r.name.clone(),
                r.nlj_plans,
                r.error_with_nlj.to_bits(),
                r.error_without_nlj.to_bits(),
            )
        })
        .collect();
    // (query, NLJ plans, error with NLJ, error without) as bits. Errors
    // below 1e-14 are rounding.
    let expected = [
        ("Q1", 2, 0x3c62_476c_cbee_78f1, 0x3c62_476c_cbee_78f1),
        ("Q2", 2, 0x3c72_59e3_8882_7da4, 0x3c72_59e3_8882_7da4),
        ("Q3", 3, 0x3cab_6bcf_a8c7_191f, 0x3cab_6bcf_a8c7_191f),
        ("Q4", 4, 0x3cad_9f76_137a_b612, 0x3cad_9f76_137a_b612),
        // Without NLJ plans: 2.92 %.
        ("Q5", 14, 0x3c84_da13_6c1c_d8a9, 0x3f9d_dc80_30f8_b25a),
        ("Q6", 3, 0x3c57_e3b0_ce0b_f8c5, 0x3c57_e3b0_ce0b_f8c5),
        ("Q7", 20, 0x3c82_caf7_0d69_10c3, 0x3c82_caf7_0d69_10c3),
        // 1.75 % with, 6.63 % without.
        ("Q8", 26, 0x3f91_f5da_1077_4444, 0x3fb0_f5f5_7340_d5b3),
        // 3.43 % with, 11.38 % without.
        ("Q9", 105, 0x3fa1_8b03_c323_f31c, 0x3fbd_2373_f469_cae3),
        ("Q10", 69, 0x3c81_6e49_2319_1963, 0x3c81_6e49_2319_1963),
    ]
    .map(|(q, n, with, without)| (q.to_string(), n, with, without));
    assert_eq!(rows, expected);
}
