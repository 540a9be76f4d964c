//! Process CPU time and peak resident memory from `getrusage(2)`,
//! declared by hand (the C library is linked by `std` already; the
//! benchmark takes no dependency for one call).

use std::time::Duration;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// (`ru_maxrss` first).
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// A snapshot of the whole process (every thread, live or exited).
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size in KiB.
    pub max_rss_kib: u64,
}

pub fn now() -> Usage {
    let mut raw = RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit
    // Linux layout; `getrusage` writes only within it and keeps no
    // pointer after returning.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let tv = |t: &Timeval| {
        Duration::from_secs(t.tv_sec.max(0) as u64) + Duration::from_micros(t.tv_usec.max(0) as u64)
    };
    Usage {
        cpu: tv(&raw.ru_utime) + tv(&raw.ru_stime),
        max_rss_kib: raw.ru_maxrss.max(0) as u64,
    }
}
