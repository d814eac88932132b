//! E5 — Figure 6/7 index selection under the 5 GB budget, with the
//! tool's optimized defaults and with the paper's, plus the advice audit:
//! every query re-optimized under the picks, against the cache's estimate.

use pinum_bench::experiments::index_selection::run;

/// Both defaults pick these, in this order (the pool ids differ: the
/// optimized defaults merge 47 prefix-subsumed candidates first).
const PICKS: [&str; 10] = [
    "fact_m0_fk2_fk3_fk4_m1_whatif",
    "fact_m2_fk2_fk4_whatif",
    "fact_m1_fk4_m2_m3_whatif",
    "fact_m0_fk0_m2_whatif",
    "dim1_4_a4_k_a2_whatif",
    "dim1_0_k_a4_whatif",
    "dim1_3_k_a1_a4_whatif",
    "dim1_1_k_a2_whatif",
    "dim1_2_k_a3_whatif",
    "dim1_5_a4_k_a1_whatif",
];

/// Each query's final cost under the picks, as bits (148 510.8 for Q1 …
/// 933 783.3 for Q10), the same for both defaults.
const FINAL_COSTS: [u64; 10] = [
    0x4102_20f6_6666_6668,
    0x4103_96ec_3333_3334,
    0x410c_9b8f_cccc_ccd1,
    0x4125_ddab_2333_732b,
    0x40e0_7abc_28f5_c2a3,
    0x4104_9326_2e14_7ae0,
    0x4126_8f01_5b85_5eb1,
    0x4120_cc77_85c2_cf54,
    0x4121_5e21_1b85_5eb0,
    0x412c_7f2e_9f5c_68ee,
];

/// Queries whose cache estimate equals the direct cost bit for bit; the
/// rest agree to within 5e-15 relative (summation order).
const BIT_EQUAL: [&str; 2] = ["Q8", "Q9"];

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let runs = run();
    let expected = [("optimized", 614, 47), ("paper", 244, 0)];
    for (r, (defaults, evaluations, merged)) in runs.iter().zip(expected) {
        let a = &r.advice;
        assert_eq!(r.defaults, defaults);
        let names: Vec<_> = a.selected_indexes().iter().map(|ix| ix.name()).collect();
        assert_eq!(names, PICKS, "{defaults}");
        assert_eq!(a.greedy.total_bytes, 5_353_267_200, "{defaults}");
        assert_eq!(a.greedy.evaluations, evaluations, "{defaults}");
        assert_eq!(a.candidates_merged, merged, "{defaults}");
        assert_eq!(a.model_build_calls, 10, "{defaults}");
        let finals: Vec<_> = a.per_query.iter().map(|o| o.final_cost.to_bits()).collect();
        assert_eq!(finals, FINAL_COSTS, "{defaults}");

        // The audit: the cache's estimate is what the optimizer says.
        for (o, &direct) in a.per_query.iter().zip(&r.direct_costs) {
            if BIT_EQUAL.contains(&o.name.as_str()) {
                assert_eq!(
                    o.final_cost.to_bits(),
                    direct.to_bits(),
                    "{defaults} {}",
                    o.name
                );
            } else {
                let rel = (o.final_cost - direct).abs() / direct;
                assert!(
                    rel <= 1e-9,
                    "{defaults} {}: {} vs {direct}",
                    o.name,
                    o.final_cost
                );
            }
        }
        // 4 254 690.83 re-optimized (the cache's sum is one ulp above).
        let direct: f64 = r.direct_costs.iter().sum();
        assert_eq!(direct.to_bits(), 0x4150_3af8_b4e1_6fa8, "{defaults}");
    }
}
