//! E2 — §VI-B what-if index accuracy over 50 non-empty random index sets.

use pinum_bench::experiments::whatif::{run, INDEX_SETS};

#[test]
#[cfg_attr(debug_assertions, ignore = "release only: full-scale acceptance")]
fn acceptance() {
    let w = run();
    assert_eq!((w.index_sets, INDEX_SETS), (50, 50));
    // Average 0.0053 %, maximum 0.198 % (the paper: 0.33 % and 1.05 %).
    assert_eq!(w.average.to_bits(), 0x3f0b_d53b_e099_af78);
    assert_eq!(w.maximum.to_bits(), 0x3f60_3c0c_2021_4156);
}
