//! What the host gave the process: on-CPU time of all its threads, and
//! the time the hypervisor stole from the machine's CPUs.
//!
//! On a shared virtual machine the hypervisor can deschedule a vCPU for
//! milliseconds ("steal"); wall-clock timings then measure the
//! neighbours as much as the program. The kernel leaves stolen time out
//! of a thread's on-CPU time, so compute throughput is measured in
//! on-CPU time; the steal share is reported next to every run.

use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Nanoseconds all threads of this process have spent on a CPU, from
/// `/proc/self/task/*/schedstat` (stolen time excluded). `None` where
/// the file system does not provide it.
pub fn process_cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in fs::read_dir("/proc/self/task").ok()? {
        let Ok(task) = task else { continue };
        // A thread may exit between listing and reading; skip it.
        if let Ok(stat) = fs::read_to_string(task.path().join("schedstat")) {
            total += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}

/// On-CPU time of the whole process, threads that have exited included
/// (`CLOCK_PROCESS_CPUTIME_ID`; stolen time excluded, as in
/// [`process_cpu_ns`]). `None` off Linux.
pub fn process_cpu_time() -> Option<Duration> {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::{c_int, c_long};
        #[repr(C)]
        struct Timespec {
            tv_sec: c_long,
            tv_nsec: c_long,
        }
        extern "C" {
            fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
        }
        const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: clock_gettime writes one timespec into `ts`, which
        // outlives the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// A stopwatch for one set-up: wall-clock and process on-CPU time.
pub struct Stopwatch {
    wall: Instant,
    cpu: Option<Duration>,
}

/// What a [`Stopwatch`] measured, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Elapsed {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// On-CPU seconds of every thread of the process; NaN when the
    /// clock is missing.
    pub cpu_s: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: process_cpu_time(),
        }
    }

    /// Reads both clocks.
    pub fn elapsed(&self) -> Elapsed {
        let cpu = match (self.cpu, process_cpu_time()) {
            (Some(a), Some(b)) => b.saturating_sub(a).as_secs_f64(),
            _ => f64::NAN,
        };
        Elapsed {
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: cpu,
        }
    }
}

/// Cumulative `(steal, total)` CPU time over every CPU of the machine,
/// in clock ticks, from `/proc/stat`.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// The share of CPU time stolen between two [`steal_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// A background thread that reads the machine's cumulative steal
/// ticks every `period`, so a run can tell which of its requests ran
/// while the hypervisor was taking CPU time away.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, u64)>>,
}

impl StealSampler {
    /// Starts sampling.
    pub fn start(period: Duration) -> Result<StealSampler, String> {
        steal_ticks().ok_or("no steal counter in /proc/stat")?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("perfbench/steal".into())
            .spawn(move || {
                let mut series = Vec::new();
                // ORDERING: a stop flag that publishes no data.
                while !flag.load(Ordering::Relaxed) {
                    if let Some((steal, _)) = steal_ticks() {
                        series.push((Instant::now(), steal));
                    }
                    std::thread::sleep(period);
                }
                if let Some((steal, _)) = steal_ticks() {
                    series.push((Instant::now(), steal));
                }
                series
            })
            .map_err(|e| format!("spawning the steal sampler: {e}"))?;
        Ok(StealSampler { stop, handle })
    }

    /// Stops the thread and returns its readings.
    pub fn finish(self) -> Steal {
        self.stop.store(true, Ordering::Relaxed);
        Steal(self.handle.join().expect("steal sampler thread"))
    }
}

/// Puts the calling thread under `SCHED_IDLE`: it runs only when no
/// other thread of the machine wants the CPU. Returns whether it took.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn sched_idle_self() -> bool {
    const SCHED_SETSCHEDULER: isize = 144;
    const SCHED_IDLE: isize = 5;
    let param: i32 = 0;
    let ret: isize;
    // SAFETY: sched_setscheduler(0, SCHED_IDLE, &param) reads one i32
    // through a pointer that outlives the call and touches no memory of
    // ours; the syscall instruction clobbers rcx and r11 only.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SCHED_SETSCHEDULER => ret,
            in("rdi") 0isize,
            in("rsi") SCHED_IDLE,
            in("rdx") &param as *const i32,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn sched_idle_self() -> bool {
    false
}

/// One busy thread per CPU under `SCHED_IDLE`, for the duration of an
/// open loop. An idle vCPU halts, and waking a halted vCPU goes through
/// the hypervisor, which takes from tens of microseconds to milliseconds
/// depending on what else the host runs; between two requests of the
/// light rate every vCPU would halt. The spinners keep the vCPUs
/// running (as `idle=poll` would) and give way at once to any other
/// thread, so a request's latency is the program's own path rather than
/// the host's wake-up time.
pub struct IdleSpin {
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<bool>>,
}

impl IdleSpin {
    /// Starts `cpus` spinners.
    pub fn start(cpus: usize) -> IdleSpin {
        let stop = Arc::new(AtomicBool::new(false));
        let handles = (0..cpus)
            .filter_map(|_| {
                let flag = Arc::clone(&stop);
                std::thread::Builder::new()
                    .name("perfbench/idle".into())
                    .spawn(move || {
                        // A spinner at normal priority would take the
                        // CPU from the program; without the policy, none.
                        if !sched_idle_self() {
                            return false;
                        }
                        // ORDERING: a stop flag that publishes no data.
                        while !flag.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                        true
                    })
                    .ok()
            })
            .collect();
        IdleSpin { stop, handles }
    }

    /// Stops and joins the spinners; returns how many ran.
    pub fn finish(self) -> usize {
        self.stop.store(true, Ordering::Relaxed);
        self.handles
            .into_iter()
            .map(|h| h.join().unwrap_or(false))
            .filter(|&ran| ran)
            .count()
    }
}

/// Steal-tick readings over time.
#[derive(Debug, Default)]
pub struct Steal(Vec<(Instant, u64)>);

impl Steal {
    /// Whether the steal counter stood still from the last reading at or
    /// before `from` to the first at or after `to`. `false` when the
    /// interval is not bracketed by readings.
    pub fn quiet(&self, from: Instant, to: Instant) -> bool {
        let before = self.0.partition_point(|&(t, _)| t <= from);
        let after = self.0.partition_point(|&(t, _)| t < to);
        match (before.checked_sub(1), self.0.get(after)) {
            (Some(b), Some(&(_, s1))) => self.0[b].1 == s1,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_done() {
        let Some(before) = process_cpu_ns() else {
            return; // no procfs here
        };
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let after = process_cpu_ns().expect("procfs stays readable");
        // At least some of the 50 ms spin ran on a CPU.
        assert!(after > before + 5_000_000, "{before} -> {after}");
    }

    #[test]
    fn quiet_needs_the_counter_to_stand_still_across_the_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let steal = Steal(vec![(at(0), 5), (at(10), 5), (at(20), 6), (at(30), 6)]);
        assert!(steal.quiet(at(1), at(9)));
        assert!(steal.quiet(at(20), at(30)));
        assert!(!steal.quiet(at(5), at(15)));
        assert!(!steal.quiet(at(25), at(31)), "past the last reading");
    }

    #[test]
    fn process_cpu_time_counts_exited_threads() {
        let Some(before) = process_cpu_time() else {
            return; // not Linux
        };
        std::thread::spawn(|| {
            let t = Instant::now();
            let mut x = 0u64;
            while t.elapsed().as_millis() < 50 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        })
        .join()
        .expect("spinning thread");
        let after = process_cpu_time().expect("the clock stays readable");
        assert!(
            after > before + Duration::from_millis(5),
            "{before:?} -> {after:?}"
        );
    }

    #[test]
    fn steal_share_is_a_fraction() {
        assert_eq!(steal_share(Some((10, 100)), Some((20, 200))), Some(0.1));
        assert_eq!(steal_share(Some((10, 100)), Some((10, 100))), None);
        assert_eq!(steal_share(None, Some((10, 100))), None);
    }
}
