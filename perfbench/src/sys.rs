//! Three Linux calls the standard library does not expose, all for the
//! load generator's timing:
//!
//! * `ppoll` waits for a socket to become readable with a nanosecond
//!   timeout. (`SO_RCVTIMEO`, behind `set_read_timeout`, rounds up to
//!   scheduler ticks of several milliseconds, so a generator waiting on a
//!   response would send its next request that late.)
//! * `prctl(PR_SET_TIMERSLACK)` lets this thread's sleeps wake on time
//!   instead of up to 50 µs late. Latency is timed from the intended send
//!   time, so a late wake-up would be charged to the server.
//! * `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` gives a client thread's
//!   own CPU time, so a result limited by the generator rather than the
//!   server shows in the report.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const PR_SET_TIMERSLACK: i32 = 29;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time the calling thread has used so far, in seconds (0 if the
/// clock is unavailable).
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid-out (`repr(C)`, 64-bit Linux
    // `struct timespec`) local that the call only writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    } else {
        0.0
    }
}

/// Waits until `fd` has bytes to read (or its peer hung up), at most
/// `timeout`. Returns `false` on timeout.
pub fn wait_readable(fd: &impl AsRawFd, timeout: Duration) -> io::Result<bool> {
    let mut pfd = PollFd {
        fd: fd.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out (`repr(C)`,
    // 64-bit Linux `struct pollfd` / `struct timespec`) locals for the
    // whole call; nfds = 1 matches the one-element array; a null sigmask
    // means "do not change the signal mask".
    let rc = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    match rc {
        0 => Ok(false),
        n if n > 0 => Ok(true),
        _ => {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(err)
            }
        }
    }
}

/// Sets the calling thread's timer slack to `ns` nanoseconds (best
/// effort: a refusal only makes sleeps less punctual, which the send-lag
/// metric reports).
pub fn set_timer_slack(ns: u64) {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes a scheduling attribute of the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, ns as std::ffi::c_ulong);
    }
}
