//! Full-scale acceptance tests, one `#[test]` each: the paper's nine
//! experiments (module `paper`) and the seven extension experiments.
//! Every value they check is deterministic at scale 1.0: picks, probe
//! counts, optimizer calls, plan and arena counts, fsyncs, replayed
//! records, cost and error bits and identity flags. Each is asserted
//! exactly; a change that moves one edits its assert, and the diff shows
//! the shift. Timing is not checked here: it is perfbench's
//! (`BENCHMARK.json`).
//!
//! In a debug build the core's `debug_assert` self-checks make these slow,
//! so they are ignored there:
//!
//! ```sh
//! cargo test --release -p pinum-bench --test acceptance
//! cargo test -p pinum-bench --test acceptance -- --ignored batched_collection
//! PINUM_ASSERT_SAMPLE=4 cargo test -p pinum-bench --test acceptance -- --ignored paper::
//! PINUM_ASSERT_SAMPLE=4 cargo test -p pinum-bench --test acceptance -- --ignored \
//!     --skip batched_collection --skip paper::
//! ```

mod batched_collection;
mod durable_throughput;
mod fixture;
mod multi_tenant;
mod online_drift;
mod paper;
mod scoped_readvise;
mod search_strategies;
mod warm_restart;
