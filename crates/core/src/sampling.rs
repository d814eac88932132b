//! Sampling for the debug-leg equivalence asserts.
//!
//! The repo's correctness discipline is "every incremental path
//! `debug_assert`s equality with its from-scratch reference" — delta
//! pricing against a full re-pricing, the spliced arm index against a
//! rebuild, batched collection against per-query collection. Each of those
//! references is O(workload) or O(optimizer call), so a debug run's cost
//! grows with the *square* of the workload. This module bounds that:
//! [`should_assert`] returns `true` on every k-th call, with `k` read once
//! from the `PINUM_ASSERT_SAMPLE` environment variable.
//!
//! * default `k = 1`: every assert fires (exactly the historical
//!   behaviour — unit tests and small fixtures keep full coverage);
//! * `PINUM_ASSERT_SAMPLE=64`: one in 64 checks runs its reference
//!   recomputation, keeping the debug acceptance leg's runtime bounded on
//!   experiment-sized workloads while still sweeping the whole space over
//!   a run.
//!
//! The counter is thread-local because the daemon prices each tenant on
//! its shard's thread, and the test harness runs tests on threads of its
//! own: sampling is a per-thread stride, so *which* checks fire in one
//! thread's run does not depend on what other shards or tests priced.
//! Release builds compile the asserts out entirely; callers gate on
//! `#[cfg(debug_assertions)]` first so release code never pays even the
//! counter bump.

use std::cell::Cell;
use std::sync::OnceLock;

/// The sampling stride: asserts fire on every k-th check. Parsed once;
/// unset, empty, unparsable, or zero values all mean 1 (assert always).
pub fn sample_every() -> u64 {
    static K: OnceLock<u64> = OnceLock::new();
    *K.get_or_init(|| {
        std::env::var("PINUM_ASSERT_SAMPLE")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&k| k >= 1)
            .unwrap_or(1)
    })
}

/// Whether this call is one of the sampled-in checks. Call exactly once
/// per equivalence check, inside the `#[cfg(debug_assertions)]` block.
pub fn should_assert() -> bool {
    let k = sample_every();
    if k == 1 {
        return true;
    }
    thread_local! {
        static COUNTER: Cell<u64> = const { Cell::new(0) };
    }
    COUNTER.with(|c| {
        let n = c.get().wrapping_add(1);
        c.set(n);
        n % k == 0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_to_asserting_every_check() {
        // Only meaningful when the environment does not override the
        // stride (CI and local test runs leave it unset).
        if std::env::var("PINUM_ASSERT_SAMPLE").is_err() {
            assert_eq!(sample_every(), 1);
            for _ in 0..10 {
                assert!(should_assert());
            }
        }
    }
}
