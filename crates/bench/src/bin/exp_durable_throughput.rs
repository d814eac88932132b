//! Durable throughput: drive one drifting admission stream through the
//! journaled advisor serially and group-commit batched, demand
//! bit-identity at a fraction of the fsyncs, and re-check identity
//! through a mid-stream crash and restore. See
//! `experiments::durable_throughput`.
use pinum_bench::experiments::durable_throughput;
use pinum_bench::fixtures::scale_from_env;

fn main() {
    let outcome = durable_throughput::run(scale_from_env());
    // The gates are asserted inside `run`; re-state the headline for CI.
    println!(
        "acceptance ok: batched run bit-identical at {:.4} fsyncs/admission \
         ({} vs {} serial), crash leg replayed {} records identically",
        outcome.fsyncs_per_admission,
        outcome.batched_fsyncs,
        outcome.serial_fsyncs,
        outcome.crash_replayed
    );
}
