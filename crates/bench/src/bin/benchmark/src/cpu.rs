//! CPU time of this process, of the calling thread, or of this process's
//! waited-for children.
//!
//! The end-to-end timings are CPU time, not wall time: a thread's wall
//! time also counts the time it waits for a core, which on a shared 2-vCPU
//! machine moves with whatever else runs. (The host's own speed still moves
//! CPU time; `speed.rs` scales that out.)

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads CPU time through the 64-bit Linux C layouts");

/// `struct timespec` and `struct timeval` on 64-bit Linux.
#[repr(C)]
struct Time {
    sec: i64,
    /// Nanoseconds in a `timespec`, microseconds in a `timeval`.
    frac: i64,
}

/// `struct rusage` on 64-bit Linux: user and system time, then fourteen
/// `long` counters this module does not read.
#[repr(C)]
struct Rusage {
    utime: Time,
    stime: Time,
    rest: [i64; 14],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Time) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_CHILDREN: i32 = -1;

/// A CPU-time clock, to the nanosecond. (`getrusage` would not do for a
/// running thread: it reports the CPU time accounted at the last
/// scheduler tick, up to 4 ms behind.)
fn clock(id: i32) -> f64 {
    let mut t = Time { sec: 0, frac: 0 };
    // SAFETY: `t` is a live, writable `struct timespec` of the C layout for
    // this target (checked by the `compile_error!` above), and `id` is one
    // of the two CPU-time clocks every Linux kernel provides;
    // clock_gettime writes only into `t`.
    let rc = unsafe { clock_gettime(id, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({id}) failed with valid arguments");
    t.sec as f64 + t.frac as f64 / 1e9
}

/// CPU seconds of every thread of this process, live or exited.
pub fn process() -> f64 {
    clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds of the calling thread.
pub fn thread() -> f64 {
    clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds of every child process waited for so far, with their own
/// waited-for children.
pub fn children() -> f64 {
    let mut usage = Rusage {
        utime: Time { sec: 0, frac: 0 },
        stime: Time { sec: 0, frac: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the C layout
    // for this target (checked by the `compile_error!` above), and
    // RUSAGE_CHILDREN is a valid `who`; getrusage writes only into `usage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_CHILDREN) failed with valid arguments"
    );
    let secs = |t: &Time| t.sec as f64 + t.frac as f64 / 1e6;
    secs(&usage.utime) + secs(&usage.stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_time_is_finer_than_a_scheduler_tick() {
        // A clock read at scheduler ticks would give the same value to
        // nearly all of these back-to-back reads.
        let reads: Vec<f64> = (0..1000).map(|_| thread()).collect();
        let advanced = reads.windows(2).filter(|w| w[1] > w[0]).count();
        assert!(advanced > 500, "{advanced} of 999 reads advanced");
    }

    #[test]
    fn busy_time_counts_and_sleep_does_not() {
        let (p0, t0) = (process(), thread());
        let mut x = 0u64;
        while thread() - t0 < 0.05 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let (p1, t1) = (process(), thread());
        assert!(
            p1 - p0 >= t1 - t0,
            "process {} < thread {}",
            p1 - p0,
            t1 - t0
        );
        std::thread::sleep(std::time::Duration::from_millis(200));
        assert!(thread() - t1 < 0.02, "sleeping cost {}", thread() - t1);
    }

    #[test]
    fn a_waited_child_adds_its_time() {
        let before = children();
        let status = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
            .status()
            .expect("run sh");
        assert!(status.success());
        assert!(children() > before, "child CPU time was not counted");
    }
}
