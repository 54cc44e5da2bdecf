//! Facts about the host and the build that every result records, and
//! the process's peak resident set and CPU time.

use std::path::Path;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU's brand string, read with `cpuid` (no file access).
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf; the brand
    // string needs 0x8000_0004.
    #[allow(unused_unsafe)]
    // SAFETY: `cpuid` is available on every x86_64 processor and only
    // reads identification registers.
    let max = unsafe { __cpuid(0x8000_0000) }.eax;
    if max < 0x8000_0004 {
        return "unknown x86_64".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        #[allow(unused_unsafe)]
        // SAFETY: as above; `leaf` is at most the reported maximum.
        let r = unsafe { __cpuid(leaf) };
        for reg in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&reg.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(|c: char| c == '\0' || c.is_whitespace())
        .to_string()
}

/// The CPU's brand string (unknown off x86_64).
#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    format!("unknown {}", std::env::consts::ARCH)
}

/// The git revision of the checkout, when it is a git work tree.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|r| r.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(git.join("packed-refs")).map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head.to_string(),
    }
}

/// Every host fact as `key=value` pairs, in a fixed order.
pub fn facts(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("cpu", cpu_model()),
        ("rustc", env!("HDBENCH_RUSTC").to_string()),
        ("profile", env!("HDBENCH_PROFILE").to_string()),
        ("git", git_revision()),
        ("seed", seed.to_string()),
    ]
}

#[cfg(target_os = "linux")]
mod rusage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long` counters.
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    pub const RUSAGE_SELF: i32 = 0;
}

#[cfg(target_os = "linux")]
fn usage() -> rusage::Rusage {
    let mut usage = rusage::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly sized and aligned `struct rusage`
    // that `getrusage` fills; `RUSAGE_SELF` is a valid `who`.
    let rc = unsafe { rusage::getrusage(rusage::RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage
}

/// Peak resident set of this process so far, MB: `VmHWM`, the high-water
/// mark of this program's own address space. (`ru_maxrss` would not do:
/// it keeps the peak of the process image that exec'd this one, such as
/// a `cargo run` parent.)
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}

/// User plus system CPU time of every thread of this process so far, s.
#[cfg(target_os = "linux")]
pub fn cpu_s() -> f64 {
    let u = usage();
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    secs(u.utime) + secs(u.stime)
}

/// Peak resident set of this process so far, MB (Linux only).
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    panic!("peak resident set is read from /proc, available on Linux only")
}

/// Process CPU time, s (Linux only).
#[cfg(not(target_os = "linux"))]
pub fn cpu_s() -> f64 {
    panic!("CPU time is read with getrusage, available on Linux only")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facts_are_filled_in() {
        let _quiet = crate::cpu_test_lock();
        let facts = facts(7);
        assert_eq!(facts.len(), 6);
        assert!(facts.iter().all(|(_, v)| !v.is_empty()));
        assert_eq!(facts[5], ("seed", "7".to_string()));
        assert!(nproc() >= 1);
    }

    #[test]
    fn peak_rss_grows_with_touched_memory() {
        let _quiet = crate::cpu_test_lock();
        let before = peak_rss_mb();
        assert!(before > 0.0);
        let block = vec![1u8; 64 << 20];
        std::hint::black_box(&block);
        assert!(peak_rss_mb() >= before);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let _quiet = crate::cpu_test_lock();
        let before = cpu_s();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(50) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_s() > before);
    }
}
