//! Online tuning under workload drift: the `pinum_online` daemon (epoch +
//! drift-triggered warm-started re-advising over a streaming model) vs
//! periodic full rebuild-and-reselect. See `experiments::online_drift`.
use pinum_bench::experiments::online_drift;
use pinum_bench::fixtures::scale_from_env;

fn main() {
    let outcome = online_drift::run(scale_from_env());
    // The gates are asserted inside `run`; re-state the headline for CI.
    println!(
        "acceptance ok: steady-state cost ratio {:.4} over {} re-advise points, \
         O(query) admission (arms identical: {})",
        outcome.steady_max_ratio,
        outcome.points.len(),
        outcome.admit_arms_identical,
    );
}
