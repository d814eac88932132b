//! Recovery memory gate: the heap `PersistentAdvisor::open` needs must
//! not grow with the tenant's history. It streams the log and decodes
//! only the records after the snapshot cut, so its high-water mark is one
//! snapshot plus one record, whether the log holds 40 admissions or 640.
//!
//! This is its own test binary with a single `#[test]`, so no other test
//! thread allocates while the counters are read.

mod common;

use common::{fingerprint, fixture, opts, Fixture, ScratchDir};
use pinum_online::AdmissionSpec;
use pinum_persist::{PersistentAdvisor, LOG_FILE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Tracking;

/// Live heap bytes and their high-water mark; statistics only, so
/// `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => shrank(layout.size() - new_size),
            }
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

const SNAPSHOT_EVERY: usize = 16;

type Fingerprint = (Vec<usize>, u64, Vec<u64>, Vec<u64>);

/// Writes a tenant of `admissions` admissions (cycling the fixture's
/// models) into `dir` and drops it; returns its log's size in bytes and
/// its fingerprint.
fn write_tenant(dir: &Path, fx: &Fixture, admissions: usize) -> (u64, Fingerprint) {
    let mut durable = PersistentAdvisor::create(dir, fx.pool.clone(), opts(12, 5), SNAPSHOT_EVERY)
        .expect("create");
    for i in 0..admissions {
        let k = i % fx.models.len();
        let (cache, access) = &fx.models[k];
        let spec = AdmissionSpec::new(cache, access)
            .weight(fx.weights[k])
            .templates(&fx.templates[k]);
        durable.apply(spec).expect("apply");
    }
    let want = fingerprint(durable.advisor());
    drop(durable);
    let log_bytes = std::fs::metadata(dir.join(LOG_FILE))
        .expect("stat log")
        .len();
    (log_bytes, want)
}

/// Heap high-water mark of one `open`, above the bytes live before it;
/// also checks that the open restored `want`.
fn open_high_water(dir: &Path, want: &Fingerprint) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let (restored, _) = PersistentAdvisor::open(dir, SNAPSHOT_EVERY).expect("open");
    let high_water = PEAK.load(Ordering::Relaxed) - before;
    assert_eq!(&fingerprint(restored.advisor()), want, "{}", dir.display());
    high_water
}

#[test]
fn recovery_heap_does_not_grow_with_history() {
    let fx = fixture(2, 10);
    let mut figures = Vec::new();
    for admissions in [40, 160, 640] {
        let scratch = ScratchDir::new(&format!("memory-{admissions}"));
        let (log_bytes, want) = write_tenant(&scratch.0, &fx, admissions);
        figures.push((admissions, log_bytes, open_high_water(&scratch.0, &want)));
    }
    for &(admissions, log_bytes, high_water) in &figures {
        println!("{admissions} admissions: log {log_bytes} B, open high-water {high_water} B");
    }

    // Parent commit (whole log read into one buffer, every record decoded
    // into a Vec), logs of 0.36 / 1.40 / 5.54 MB: 1.44 / 5.25 / 20.8 MB at
    // 40 / 160 / 640 admissions, growing at ≈ 3.75 × log bytes. This
    // change: 0.53 / 0.49 / 0.49 MB, the same in debug and release. (40
    // admissions replay an 8-record tail past the last cut; 160 and 640
    // end on a cut.)
    let (_, _, at_40) = figures[0];
    let (_, log_640, at_640) = figures[2];
    assert!(
        at_640 as f64 <= 1.25 * at_40 as f64,
        "open's heap grows with history: {at_40} B at 40 admissions, {at_640} B at 640"
    );
    assert!(
        (at_640 as u64) < log_640 / 4,
        "open's heap at 640 admissions ({at_640} B) is not below a quarter of its log ({log_640} B)"
    );
}
