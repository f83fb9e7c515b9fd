//! Steady clocks for a shared host.
//!
//! On a shared host the vCPUs lose time two ways.  The host can take a
//! vCPU away altogether for a while (steal time), and while it runs, the
//! vCPU can run up to about 1.5× more slowly as other tenants load the
//! same physical core, for seconds at a time.  A stretch of program work
//! timed by the wall clock in such a spell reads slower although the
//! program did not change.  Two things take this out:
//!
//! * **CPU clocks** ([`process_cpu_s`], [`thread_cpu_s`]): the seconds
//!   the process's (or the calling thread's) threads ran, which leave out
//!   steal.  `sweep` operating points, `serve` load phases and every
//!   workload's set-up are timed by the process CPU clock.
//! * The **calibration kernel** ([`kernel_s`]): a fixed kernel of the
//!   benchmark's own code, timed on the thread CPU clock next to a
//!   stretch.  The stretch's time is rescaled to the *calibrated host*,
//!   one on which that kernel takes exactly [`CALIBRATED_KERNEL_S`].
//!   That takes out the slow spells.  `train` times its short update
//!   intervals by the wall clock, each next to a kernel run, and
//!   takes medians, so the few intervals a steal spell hits do not move
//!   them.
//!
//! Neither reads program code, so a change to the program moves the
//! calibrated figures in the same proportion as its wall time.

use std::hint::black_box;
use std::time::Instant;

/// Time the kernel takes on the calibrated host.
pub const CALIBRATED_KERNEL_S: f64 = 0.5e-3;

/// Side of the kernel's square matrices.
const N: usize = 48;

/// CPU seconds one run of the calibration kernel takes right now (wall
/// seconds where the thread CPU clock is unavailable): four naive 48×48
/// single-precision matrix products, the loop shape of the naive layers
/// the program trains with.
pub fn kernel_s() -> f64 {
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.125).collect();
    let b: Vec<f32> = (0..N * N).map(|i| (i % 5) as f32 * 0.25).collect();
    let (a, b) = (black_box(a), black_box(b));
    let mut c = vec![0.0f32; N * N];
    let t = Instant::now();
    let cpu = thread_cpu_s();
    for _ in 0..4 {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += x * b[k * N + j];
                }
            }
        }
        black_box(&mut c);
    }
    match (cpu, thread_cpu_s()) {
        (Some(before), Some(after)) => after - before,
        _ => t.elapsed().as_secs_f64(),
    }
}

/// The median of three kernel runs.
fn kernel_median_s() -> f64 {
    let mut runs = [kernel_s(), kernel_s(), kernel_s()];
    runs.sort_by(f64::total_cmp);
    runs[1]
}

/// The kernel's time on `threads` threads at once (each the median of
/// three runs), as the harmonic mean of their times: the calibration of
/// work spread over that many vCPUs, whose throughput is the sum of their
/// speeds.
pub fn kernel_parallel_s(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel_median_s();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(kernel_median_s)).collect();
        let mut times = vec![kernel_median_s()];
        times.extend(others.into_iter().filter_map(|h| h.join().ok()));
        times
    });
    times.len() as f64 / times.iter().map(|t| 1.0 / t).sum::<f64>()
}

/// One timed stretch of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Seconds as measured, on the wall or a CPU clock.
    pub raw_s: f64,
    /// The same seconds on the calibrated host.
    pub calibrated_s: f64,
}

impl Sample {
    /// `raw_s` of work measured while the kernel took `kernel_s`.
    pub fn new(raw_s: f64, kernel_s: f64) -> Self {
        let calibrated_s = if kernel_s > 0.0 {
            raw_s * CALIBRATED_KERNEL_S / kernel_s
        } else {
            raw_s
        };
        Self {
            raw_s,
            calibrated_s,
        }
    }
}

/// The median raw time and the median calibrated time of `samples`, each
/// taken on its own; `None` when empty.
pub fn medians(samples: &[Sample]) -> Option<Sample> {
    let raw: Vec<f64> = samples.iter().map(|s| s.raw_s).collect();
    let calibrated: Vec<f64> = samples.iter().map(|s| s.calibrated_s).collect();
    Some(Sample {
        raw_s: crate::stats::median(&raw)?,
        calibrated_s: crate::stats::median(&calibrated)?,
    })
}

/// `clock_gettime(2)` on a CPU-time clock, in seconds.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock_s(clock: i32) -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, which writes only to it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    (rc == 0).then_some(ts.sec as f64 + ts.nsec as f64 * 1e-9)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn cpu_clock_s(_clock: i32) -> Option<f64> {
    None
}

/// CPU seconds every thread of this process, live or ended, has run so
/// far (`CLOCK_PROCESS_CPUTIME_ID`), or `None` off 64-bit Linux.
pub fn process_cpu_s() -> Option<f64> {
    cpu_clock_s(2)
}

/// CPU seconds the calling thread has run so far
/// (`CLOCK_THREAD_CPUTIME_ID`), or `None` off 64-bit Linux.
pub fn thread_cpu_s() -> Option<f64> {
    cpu_clock_s(3)
}

/// A stretch of work timed by the wall clock and the process CPU clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSample {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of every thread of the process over the stretch (the
    /// wall seconds where the CPU clock is unavailable).
    pub cpu_s: f64,
}

/// Runs `work`, timing it by both clocks.
pub fn cpu_timed<T>(work: impl FnOnce() -> T) -> (T, CpuSample) {
    let cpu_before = process_cpu_s();
    let t = Instant::now();
    let value = work();
    let wall_s = t.elapsed().as_secs_f64();
    let cpu_s = match (cpu_before, process_cpu_s()) {
        (Some(before), Some(after)) => after - before,
        _ => wall_s,
    };
    (value, CpuSample { wall_s, cpu_s })
}

/// Runs `work`, timing it by the process CPU clock, with the kernel run
/// on `threads` threads right before and right after it (the stretch's
/// kernel time is the mean of the two).
pub fn timed<T>(threads: usize, work: impl FnOnce() -> T) -> (T, Sample) {
    let before = kernel_parallel_s(threads);
    let (value, time) = cpu_timed(work);
    let after = kernel_parallel_s(threads);
    (value, Sample::new(time.cpu_s, 0.5 * (before + after)))
}
