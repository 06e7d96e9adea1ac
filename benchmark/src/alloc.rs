//! Counting global allocator: live bytes, peak live bytes, allocation count
//! and allocated bytes, so `peak_heap_mib` and `alloc.*` are exact counts
//! that compare across commits without host-time noise.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

// Statistics only: no other data is published through these, so `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator the benchmark binary installs with `#[global_allocator]`.
pub struct Counting;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(by as u64, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Counter values at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Bytes currently allocated.
    pub live: usize,
    /// Largest `live` since the last [`reset_peak`].
    pub peak: usize,
    /// Allocations (and reallocations) since process start.
    pub count: u64,
    /// Bytes requested since process start.
    pub bytes: u64,
}

/// Read the counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

/// Start a new peak measurement from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Minor page faults of this process so far (`minflt` of `/proc/self/stat`);
/// 0 where that file cannot be read. Each one is a page the OS handed over,
/// or handed back after the allocator had returned it.
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The fields after the parenthesised command name: state is the
            // first of them and `minflt` the eighth.
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Make glibc keep every page it obtains: no `mmap` for large blocks, no
/// trimming of the heap top, growth in 64 MiB steps. Returning and
/// re-faulting pages each repetition was the largest single source of
/// run-to-run noise on the sandbox (`sparse_star` medians 0.27–0.48 s
/// without this, 0.21–0.26 s with it). A no-op where glibc is not the
/// allocator.
pub fn keep_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: `mallopt` only sets tunables of the process's allocator; it
        // is called once at start-up, before any other thread exists, with
        // parameter numbers and values the glibc manual documents.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 64 << 20);
        }
    }
}
