//! The four workloads. Each exposes one `round` and the per-layer metrics
//! its spans give; `crate::run` repeats rounds and takes medians.

pub mod offline_advise;
pub mod search_sweep;
pub mod serve;

use crate::round::{Failures, Fingerprint};
use pinum_advisor::greedy::GreedyResult;

/// Relative error allowed between a cache-priced query cost and a direct
/// optimizer call under the same selection — the bound of the repository's
/// own accuracy test (`pinum_cache_tracks_the_optimizer`).
const COST_ACCURACY_BOUND: f64 = 0.15;

/// Counts a failure when the model's price for a query strays from the
/// optimizer's by more than [`COST_ACCURACY_BOUND`].
fn check_priced_cost(failures: &mut Failures, what: &str, priced: f64, direct: f64) {
    let error = (priced - direct).abs() / direct;
    failures.check(error <= COST_ACCURACY_BOUND, || {
        format!(
            "{what}: the model prices {priced:.0}, the optimizer {direct:.0} ({:.1} % apart)",
            error * 100.0
        )
    });
}

/// Everything a search decided, bit for bit: picks, cost trajectory, bytes.
fn fingerprint_search(fp: &mut Fingerprint, result: &GreedyResult) {
    fp.words(result.picked.iter().map(|&p| p as u64));
    fp.words(result.cost_trajectory.iter().map(|c| c.to_bits()));
    fp.word(result.total_bytes);
}
