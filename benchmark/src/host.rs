//! What the numbers were measured on and with: the host envelope every
//! result file carries, plus the process's own CPU-time and peak-memory
//! readings.

use crate::json::Value;
use std::process::Command;

/// Threads the benchmark may use: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| first_line(&String::from_utf8_lossy(&out.stdout)))
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpu_features() -> Value {
    let mut v = Value::obj();
    #[cfg(target_arch = "x86_64")]
    {
        v.set("ssse3", std::arch::is_x86_feature_detected!("ssse3"));
        v.set("avx2", std::arch::is_x86_feature_detected!("avx2"));
        v.set("avx512bw", std::arch::is_x86_feature_detected!("avx512bw"));
        v.set("gfni", std::arch::is_x86_feature_detected!("gfni"));
        v.set(
            "vpclmulqdq",
            std::arch::is_x86_feature_detected!("vpclmulqdq"),
        );
    }
    v
}

/// Parses sysfs cache sizes such as `48K`, `2048K`, `260M`.
fn parse_cache_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, mult) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1u64 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// `(l1d, l2, l3)` bytes as cpu0 sees them; 0 where sysfs does not say.
pub fn cache_sizes() -> (u64, u64, u64) {
    let mut sizes = (0, 0, 0);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(kind), Some(size)) = (read("level"), read("type"), read("size"))
        else {
            continue;
        };
        let Some(bytes) = parse_cache_size(&size) else {
            continue;
        };
        match (level.trim(), kind.trim()) {
            ("1", "Data") => sizes.0 = bytes,
            ("2", _) => sizes.1 = bytes,
            ("3", _) => sizes.2 = bytes,
            _ => {}
        }
    }
    sizes
}

/// The host envelope: who measured, on what, built how.
pub fn envelope() -> Value {
    let (l1d, l2, l3) = cache_sizes();
    let mut v = Value::obj();
    v.set("nproc", nproc())
        .set("cpu_model", cpu_model())
        .set("cpu_features", cpu_features())
        .set("l1d_bytes", l1d)
        .set("l2_bytes", l2)
        .set("l3_bytes", l3)
        .set(
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        )
        .set(
            "git_sha",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        )
        .set(
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        );
    v
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable `struct rusage` for the
    // 64-bit Linux ABI this benchmark targets (two `timeval`s followed
    // by fourteen `long`s, 144 bytes), and `who` is one of the two
    // constants the call accepts; on failure the zeroed struct is kept.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    unsafe {
        getrusage(who, &mut usage);
    }
    usage
}

/// User + system CPU microseconds used so far by this process (all its
/// threads, exited ones included) and by the children it has waited for.
pub fn cpu_us() -> u64 {
    [RUSAGE_SELF, RUSAGE_CHILDREN]
        .into_iter()
        .map(|who| {
            let u = rusage(who);
            ((u.utime.sec + u.stime.sec) * 1_000_000 + u.utime.usec + u.stime.usec).max(0) as u64
        })
        .sum()
}

/// Peak resident set in MiB: the larger of this process's `VmHWM` and
/// the largest child it has waited for.
pub fn peak_rss_mib() -> f64 {
    let own_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .unwrap_or(0);
    let child_kib = rusage(RUSAGE_CHILDREN).maxrss_kib.max(0) as u64;
    own_kib.max(child_kib) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_cache_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("xK"), None);
    }

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let before = cpu_us();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_us() > before, "{x}");
        assert!(peak_rss_mib() > 0.0);
    }
}
