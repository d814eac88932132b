//! Multi-tenant daemon acceptance: N concurrent tenants over loopback
//! TCP, each bit-identical to an in-process advisor, zero steady-state
//! full re-pricings, bounded budget waits. See `experiments::multi_tenant`.
use pinum_bench::experiments::multi_tenant;
use pinum_bench::fixtures::scale_from_env;

fn main() {
    let outcome = multi_tenant::run(scale_from_env());
    // The gates are asserted inside `run`; re-state the headline for CI.
    println!(
        "acceptance ok: {} tenants bit-identical over the wire, {} steady-state full \
         re-pricings, max wait {} grant events",
        outcome.tenants, outcome.steady_full_repricings, outcome.max_wait_events,
    );
}
