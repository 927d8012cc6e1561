//! Facts about the machine and the process, read from `/proc`.

use std::process::Command;

/// Peak resident set of this process (`VmHWM`), MB. The pre-encoded stream
/// is a constant part of it.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// `(on-CPU ns, run-queue wait ns)` of the calling thread so far, from
/// `/proc/thread-self/schedstat`; zeros where the kernel does not keep it.
pub fn thread_sched() -> (u64, u64) {
    let parsed = std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|text| {
            let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
            Some((fields.next()??, fields.next()??))
        });
    parsed.unwrap_or((0, 0))
}

/// `(run-queue wait, on-CPU)` nanoseconds between two [`thread_sched`]
/// readings.
pub fn sched_delta(before: (u64, u64), after: (u64, u64)) -> (u64, u64) {
    (
        after.1.saturating_sub(before.1),
        after.0.saturating_sub(before.0),
    )
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The checked-out commit, read from the repository's `.git` directly so the
/// lookup never leaves the checkout (a `git` command would walk up the
/// parents). `None` where the checkout is not a git repository, as in the
/// driver's copy.
fn commit() -> Option<String> {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let hash = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).ok()?,
        None => head,
    };
    Some(hash.trim().chars().take(12).collect())
}

/// Host facts for the report: `(key, value)` pairs.
pub fn facts() -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map(|n| n.to_string())
                .unwrap_or_else(|_| unknown()),
        ),
        (
            "rustc",
            command_line("rustc", &["--version"]).unwrap_or_else(unknown),
        ),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| unknown()),
        ),
        ("commit", commit().unwrap_or_else(unknown)),
    ]
}

extern "C" {
    // glibc, which std already links: `cpu_set_t` is an array of
    // `unsigned long`, passed as its byte length and a pointer.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CPU_WORDS: usize = 16;

/// Pins the calling thread to the `nth` CPU this process may run on
/// (wrapping), and reports whether the kernel accepted it.
///
/// Two freshly spawned busy threads start on their parent's CPU and the
/// load balancer takes about a second to part them — a second in which each
/// is off-CPU half the time, 4 ms at a stretch. Phases C and D pin their
/// producer and worker apart so the measured window starts balanced.
pub fn pin_to_nth_cpu(nth: usize) -> bool {
    let mut allowed = [0u64; CPU_WORDS];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte
    // length passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let cpus: Vec<usize> = (0..CPU_WORDS * 64)
        .filter(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect();
    if cpus.len() < 2 {
        return false;
    }
    let cpu = cpus[nth % cpus.len()];
    let mut only = [0u64; CPU_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a live buffer of exactly the byte length passed,
    // read-only for the call; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&only), only.as_ptr()) == 0 }
}
