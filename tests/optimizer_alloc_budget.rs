//! Allocation budget of one exporting optimizer call — the noise-free
//! evidence that the join enumeration costs a candidate before it builds
//! it: a rejected candidate is a comparison, not a materialised plan — and
//! that planning both plan families in one call allocates less than the two
//! calls it replaces.
//!
//! This is its own test binary with a single `#[test]`, so no other test
//! thread allocates while the counter is read.

use pinum::core::builder::covering_configuration;
use pinum::optimizer::{Optimizer, OptimizerOptions, PlannedQuery};
use pinum::query::Query;
use pinum::workload::star::{StarSchema, StarWorkload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

/// Calls into the allocator that obtain memory (`alloc`, `alloc_zeroed`,
/// `realloc`); a statistic only, so `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations during one `optimize(q, covering, pinum_export())`.
fn export_call_allocations(opt: &Optimizer<'_>, q: &Query) -> (u64, PlannedQuery) {
    let covering = covering_configuration(opt.catalog(), q);
    let options = OptimizerOptions::pinum_export();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let planned = opt.optimize(q, &covering, &options);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    (after - before, planned)
}

#[test]
fn exporting_call_stays_within_its_allocation_budget() {
    let schema = StarSchema::generate(42, 1.0);
    let queries = StarWorkload::generate(&schema, 1, 24).queries;
    let opt = Optimizer::new(&schema.catalog);
    let six_way = &queries[23];
    let four_way = &queries[12];
    assert_eq!(six_way.relation_count(), 6);
    assert_eq!(four_way.relation_count(), 4);

    let (six, planned_six) = export_call_allocations(&opt, six_way);
    let (four, _) = export_call_allocations(&opt, four_way);
    let rejected = planned_six.stats.paths_rejected as u64;
    println!("allocations: 6-way {six} ({rejected} candidates rejected), 4-way {four}");

    // Before cost-first enumeration (every candidate built, cloned and
    // boxed before `add_path` saw it): 6-way 859 491, 4-way 42 491 (debug;
    // release 859 487 and 42 488). After it, with the NLJ-free family still
    // a call of its own: 6-way 1 320 + 6 132 = 7 452, 4-way 373 + 834 =
    // 1 207 for the two calls. One call planning both families, measured in
    // both profiles: 6-way 7 257, 4-way 1 076. The budgets are those counts
    // + 25 %; fusing must also allocate less than the two calls did.
    for (query, got, budget, two_calls) in
        [("6-way", six, 9_071, 7_452), ("4-way", four, 1_345, 1_207)]
    {
        assert!(got <= budget, "{query} export call: {got} allocations");
        assert!(
            got < two_calls,
            "{query}: {got} allocations, two calls {two_calls}"
        );
    }
    // A rejected candidate allocates nothing: the whole call allocates far
    // less often than it rejects (38 696 times on the 6-way query).
    assert!(six < rejected / 4, "{six} allocations, {rejected} rejects");
}
