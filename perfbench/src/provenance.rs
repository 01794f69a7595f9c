//! Where a result came from: hardware, toolchain, code, and run shape.

use std::process::Command;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning: a later claim must also hold on it.
pub const HELD_OUT_SEED: u64 = 9973;

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The processor brand string, from `cpuid` leaves 0x8000_0002..4.
#[cfg(target_arch = "x86_64")]
fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // The extended leaves are read only when leaf 0x8000_0000 reports them.
    let max = __cpuid(0x8000_0000).eax;
    if max < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

#[cfg(not(target_arch = "x86_64"))]
fn cpu_model() -> String {
    "unknown".to_string()
}

/// The `rustflags` line of the checkout's `.cargo/config.toml`.
fn rustflags() -> String {
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .map(str::to_string)
        })
        .unwrap_or_else(|| "none".to_string())
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One JSON line describing the run.
pub fn line(workload: &str, seed: u64, seconds: u64, trace: bool, repeats: &str) -> String {
    let fields = [
        ("cpu_model", cpu_model()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("rustc", first_line("rustc", &["--version"])),
        ("git_commit", first_line("git", &["rev-parse", "HEAD"])),
        ("rustflags", rustflags()),
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("run_seconds", seconds.to_string()),
        ("trace", trace.to_string()),
        ("repeats", repeats.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process in MB (`ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a correctly laid-out, writable `struct rusage`.
    if unsafe { getrusage(RUSAGE_SELF, &mut u) } != 0 {
        return f64::NAN;
    }
    u.maxrss as f64 / 1024.0
}
