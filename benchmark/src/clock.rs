//! The clock of the timed sections: the CPU time of the calling thread.
//!
//! The benchmark's hosts are a few cores of a shared machine. When the
//! hypervisor or the guest scheduler takes the core away for a while, wall
//! time keeps running and a section reads slower by whatever the neighbours
//! did; the thread's CPU time stands still (the guest's task clock leaves
//! stolen time out). Every workload's client is one closed-loop thread that
//! never sleeps, and the engine runs `migrate_all` and the adaptation loop
//! inline at one thread, so on an undisturbed core the two clocks agree —
//! except for the wait inside `fsync`, which is the sandbox's disk and is
//! reported on its own (`storage.wal.sync_us`). Per-command latencies stay
//! on the wall clock: a median over thousands of microsecond-long calls
//! does not see the few that were interrupted.

use std::time::Duration;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the C library's 64-bit
    // layout and the clock id is one every Linux kernel since 2.6.12 knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is not available");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Elsewhere: the wall clock, counted from the first call.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu() -> Duration {
    use std::sync::OnceLock;
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    START.get_or_init(std::time::Instant::now).elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_not_with_sleep() {
        let start = thread_cpu();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu() - start;
        let mut x = 1u64;
        while thread_cpu() - start < slept + Duration::from_millis(5) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
            assert!(slept < Duration::from_millis(15), "{slept:?} of CPU asleep");
        }
    }
}
