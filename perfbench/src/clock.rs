//! The clock the end-to-end times are charged on: CPU seconds of this
//! process, which leave out the time the hypervisor of a shared host
//! gives this machine's vCPUs to someone else ("steal").
//!
//! On a shared 2-vCPU host, steal ranged from 1% to 50% of a closed-loop
//! burst within minutes, and moved its wall-clock rate by up to 3x while
//! the answers per CPU-second moved by about 15% (see README). Wall-clock
//! figures stay in the traced run, where they have no bound.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds used by every thread of this process so far
/// (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution).
fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Seconds stolen from this machine's vCPUs so far, summed over them
/// (the `steal` column of `/proc/stat`); 0 where the kernel does not
/// report it.
fn steal_s() -> f64 {
    /// `USER_HZ`, the unit of `/proc/stat` on Linux.
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?.to_string();
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |t| t / TICKS_PER_S)
}

/// Wall, process-CPU and steal readings taken together.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    wall: Instant,
    cpu_s: f64,
    steal_s: f64,
}

/// What passed between two readings.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub steal_s: f64,
}

impl Reading {
    pub fn now() -> Self {
        Reading {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
            steal_s: steal_s(),
        }
    }

    pub fn elapsed(&self) -> Span {
        let now = Reading::now();
        Span {
            wall_s: now.wall.duration_since(self.wall).as_secs_f64(),
            cpu_s: now.cpu_s - self.cpu_s,
            steal_s: now.steal_s - self.steal_s,
        }
    }
}

impl Span {
    /// The share of the machine's vCPU time (`cpus` of them) stolen.
    pub fn steal_frac(&self, cpus: usize) -> f64 {
        self.steal_s / (cpus.max(1) as f64 * self.wall_s).max(1e-9)
    }
}

/// vCPUs of this machine.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_monotone_and_count_work() {
        let r = Reading::now();
        let mut x = 0u64;
        while r.elapsed().wall_s < 0.03 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let busy = r.elapsed();
        assert!(busy.wall_s >= 0.03);
        assert!(busy.cpu_s.is_finite() && busy.cpu_s > 0.0);
        assert!(busy.steal_s >= 0.0);
    }

    #[test]
    fn steal_share_is_per_vcpu() {
        let s = Span {
            wall_s: 2.0,
            cpu_s: 1.0,
            steal_s: 1.0,
        };
        assert_eq!(s.steal_frac(2), 0.25);
        assert_eq!(Span::default().steal_frac(2), 0.0);
    }
}
