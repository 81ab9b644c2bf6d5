//! Host-side measurements: a counting global allocator, peak RSS and a
//! machine-speed probe.
//!
//! The allocator counts heap allocations and bytes requested by the whole
//! process, read before and after a measured phase. The simulation is
//! deterministic and single-threaded, so the counts repeat exactly for the
//! same inputs and compare across commits without noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

pub struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(allocations, bytes)` requested so far by the process.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set size of the process in MiB (`getrusage`'s
/// `ru_maxrss`, which Linux reports in KiB).
pub fn peak_rss_mb() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.maxrss as f64 / 1024.0
}

/// Host seconds of a fixed piece of work that uses only the standard
/// library and is shaped like the simulator's own: streaming over a vector
/// of records, and ordered-map inserts and lookups with freshly formatted
/// string keys. Program changes cannot move it; the speed a shared machine
/// gives the process moves it exactly as it moves the measured run.
pub fn speed_probe_s() -> f64 {
    let start = Instant::now();
    let records: Vec<[u64; 8]> = (0..50_000u64).map(|i| [i; 8]).collect();
    let mut sum = 0u64;
    for pass in 0..10 {
        sum = records.iter().fold(sum, |s, r| s.wrapping_add(r[pass % 8]));
    }
    let mut map = BTreeMap::new();
    for i in 0..10_000u64 {
        map.insert(format!("f{}", i.wrapping_mul(0x9e37_79b9) % 1_000_003), i);
    }
    for i in 0..50_000u64 {
        sum = sum.wrapping_add(*map.get(&format!("f{}", i % 1_000_003)).unwrap_or(&0));
    }
    std::hint::black_box(sum);
    start.elapsed().as_secs_f64()
}
