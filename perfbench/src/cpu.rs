//! Whole-process CPU time and peak resident memory from `getrusage(2)`.
//!
//! `RUSAGE_SELF` covers every thread the process ever ran, including
//! threads that have already been joined, so a reading taken after the
//! learner or worker threads exit still contains their work. Summing
//! per-thread counters under `/proc/self/task` would not: an exited
//! thread's entry is gone.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two `timeval`s, then fourteen
/// `long` counters of which only `ru_maxrss` (the first) is read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _rest: [c_long; 13],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn usage() -> Rusage {
    let mut r = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with Linux's field
    // layout, and `RUSAGE_SELF` is a valid `who`; the call writes only
    // into `r`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    r
}

fn tv(t: &Timeval) -> Duration {
    Duration::from_secs(t.tv_sec as u64) + Duration::from_micros(t.tv_usec as u64)
}

/// User plus system CPU consumed so far by the whole process.
pub fn process_cpu() -> Duration {
    let r = usage();
    tv(&r.ru_utime) + tv(&r.ru_stime)
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    // Linux reports ru_maxrss in KiB.
    usage().ru_maxrss as f64 / 1024.0
}

/// CPU time the hypervisor gave to other guests while this one wanted
/// it (`steal` in `/proc/stat`, all CPUs), in clock ticks; 0 when the
/// kernel does not report it.
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn joined_thread_cpu_is_counted() {
        let before = process_cpu();
        std::thread::spawn(|| {
            let start = Instant::now();
            let mut x = 0u64;
            while start.elapsed() < Duration::from_millis(200) {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
            x
        })
        .join()
        .expect("spinner");
        // The spinner has exited; its CPU must still be in the total.
        let used = process_cpu() - before;
        assert!(used >= Duration::from_millis(150), "only {used:?} counted");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
