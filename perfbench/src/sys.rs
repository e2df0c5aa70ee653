//! Resource readings for the serving process: CPU time and peak
//! resident set size. CPU time comes from the kernel's per-process CPU
//! clock (nanosecond resolution, all threads, exited ones included);
//! peak RSS is `VmHWM` from `/proc/<pid>/status`.

use std::time::Duration;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn read_clock(clock: i32) -> Option<Duration> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call,
    // and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u32::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then(|| Duration::new(secs, nanos))
}

/// CPU time consumed so far by this process.
pub fn self_cpu() -> Duration {
    read_clock(CLOCK_PROCESS_CPUTIME_ID).expect("the process CPU clock is always readable")
}

/// CPU time consumed so far by another process, `None` once it is gone.
pub fn process_cpu(pid: u32) -> Option<Duration> {
    let pid = i32::try_from(pid).ok()?;
    let mut clock = 0i32;
    // SAFETY: `clock` is a live, writable `clockid_t` for the whole call.
    let rc = unsafe { clock_getcpuclockid(pid, &mut clock) };
    if rc != 0 {
        return None;
    }
    read_clock(clock)
}

/// Peak resident set size in MiB of `pid` (this process when `None`).
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
