//! E3 — §VI-C cache cost-model accuracy: per query, the mean, p95 and
//! maximum relative error of the PINUM cache's estimate against a direct
//! optimizer call over 1 000 random atomic configurations.
//!
//! Every error above rounding is an over-estimate caused by the §V-D
//! subset-cost sweep: it compares totals at the covering configuration's
//! access costs, and so drops nested-loop plans that win under other
//! configurations (Q9's maximum is +492 %).

use pinum_bench::experiments::cost_accuracy::run;

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let errors: Vec<_> = run()
        .iter()
        .map(|a| {
            (
                a.name.clone(),
                a.mean_error.to_bits(),
                a.p95_error.to_bits(),
                a.max_error.to_bits(),
            )
        })
        .collect();
    // (query, mean, p95, max) as bits. Errors below 1e-14 are rounding.
    let expected = [
        ("Q1", 0x3c64_2b06_1007_2887, 0x0, 0x3cbc_e124_ec6e_5084),
        (
            "Q2",
            0x3c6e_8e90_7f1d_cda9,
            0x3ca9_6d73_d553_7c50,
            0x3caa_22ea_ca41_7c31,
        ),
        (
            "Q3",
            0x3caa_85da_8469_d228,
            0x3cad_f885_3e38_f0d6,
            0x3cc6_5f23_06e0_8e67,
        ),
        (
            "Q4",
            0x3cae_6327_6723_5b9f,
            0x3cae_7fba_0135_d6f3,
            0x3ccd_1e3f_bb63_ed07,
        ),
        // Mean 0.74 %, max +271.11 %.
        (
            "Q5",
            0x3f7e_2c86_f474_4df7,
            0x3cab_0b02_62eb_3a98,
            0x4005_b066_1103_5382,
        ),
        ("Q6", 0x3c3f_da41_12ba_a108, 0x0, 0x3cb8_e282_d6a1_cdce),
        (
            "Q7",
            0x3c7b_60f3_6ee0_5e73,
            0x3ca6_bb02_1499_54ab,
            0x3cd1_910e_4992_5070,
        ),
        // Mean 1.56 %, p95 0.12 %, max +208.58 %.
        (
            "Q8",
            0x3f8f_e511_2cd6_0b90,
            0x3f53_ee0a_ab07_a08f,
            0x4000_afc5_4cb1_ad3c,
        ),
        // Mean 2.24 %, p95 0.015 %, max +492.20 %.
        (
            "Q9",
            0x3f96_f6c2_f585_d6fb,
            0x3f24_30fc_bc09_40d6,
            0x4013_b015_f014_c825,
        ),
        (
            "Q10",
            0x3c75_63e2_fc0e_762d,
            0x3cb2_026f_536d_68b9,
            0x3cbc_f700_1167_469f,
        ),
    ]
    .map(|(q, mean, p95, max)| (q.to_string(), mean, p95, max));
    assert_eq!(errors, expected);
}
