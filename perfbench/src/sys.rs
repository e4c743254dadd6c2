//! Process counters without extra crates: `getrusage(RUSAGE_SELF)` for CPU
//! time, context switches and peak RSS, and a counting global allocator
//! that only pays for its counter while a window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage with the 64-bit Linux struct layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// One `getrusage(RUSAGE_SELF)` sample. Covers every thread of the process,
/// exited ones included, so simulator process threads are counted.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary plus involuntary context switches.
    pub csw: u64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

impl Usage {
    /// Sample the calling process.
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable struct with the kernel's
        // 64-bit Linux `struct rusage` layout, and RUSAGE_SELF is valid.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(&raw.utime),
            sys_s: secs(&raw.stime),
            csw: (raw.nvcsw + raw.nivcsw) as u64,
            peak_rss_mb: raw.maxrss as f64 / 1024.0,
        }
    }

    /// Counters accumulated between `earlier` and `self` (peak RSS is kept
    /// from `self`: it is a high-water mark, not a counter).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            csw: self.csw.saturating_sub(earlier.csw),
            peak_rss_mb: self.peak_rss_mb,
        }
    }

    /// User plus system seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator that counts allocations while a window opened
/// by [`count_allocs`] is active. Outside a window it costs one relaxed
/// load per allocation.
pub struct CountingAlloc;

// SAFETY: every method delegates to `System` with the caller's arguments;
// the counters are statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Run `f` with allocation counting on and return its result with the
/// number of allocations made by every thread meanwhile. Only counts when
/// [`CountingAlloc`] is the binary's global allocator.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let r = f();
    COUNTING.store(false, Ordering::SeqCst);
    (r, ALLOCS.load(Ordering::SeqCst) - before)
}
