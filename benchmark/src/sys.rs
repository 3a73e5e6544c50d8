//! What the benchmark reads from the host: `/proc` for memory, threads and
//! CPU time, and the machine record written beside every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::json::Json;

fn proc_status_kb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(f64::NAN)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// Threads in this process right now.
pub fn thread_count() -> usize {
    proc_status_kb("Threads:") as usize
}

/// Cores the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(name, user+system CPU seconds)` for every thread of this process.
pub fn thread_cpu_seconds() -> Vec<(String, f64)> {
    // USER_HZ is 100 on every Linux the toolchain targets.
    const TICK: f64 = 0.01;
    let mut out = Vec::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        // "pid (comm) state ..." — comm may hold spaces, so split at the
        // last ')'. utime and stime are fields 14 and 15 of the full line.
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        let rest: Vec<&str> = stat[close + 1..].split_whitespace().collect();
        let ticks = |i: usize| {
            rest.get(i)
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        out.push((
            stat[open + 1..close].to_string(),
            (ticks(11) + ticks(12)) * TICK,
        ));
    }
    out
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The machine record: where and on what a set of numbers was measured.
pub fn machine_record() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
        .unwrap_or(f64::NAN);
    Json::obj([
        (
            "commit",
            Json::Str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::Str(cpu)),
        ("rustc", Json::Str(first_line("rustc", &["--version"]))),
        ("load_avg_1min_at_start", Json::Num(load1)),
    ])
}

// ---------------------------------------------------- counting allocator --

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with counters that run only while armed, so that
/// untraced runs pay one relaxed load per call and nothing else.
pub struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.load(Ordering::Relaxed) {
            // Wrapping: a block allocated before arming may die after it.
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are exactly `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Start or stop counting.
pub fn arm_alloc_counter(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocation calls, live bytes)` since the counters were first armed.
/// Live bytes is a wrapping difference: subtract two readings.
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        LIVE_BYTES.load(Ordering::Relaxed),
    )
}

/// Run `f` with the counter armed; returns its result and the bytes it
/// left live.
pub fn live_bytes_of<R>(f: impl FnOnce() -> R) -> (R, i64) {
    let was = ARMED.swap(true, Ordering::Relaxed);
    let (_, b0) = alloc_counters();
    let r = f();
    let (_, b1) = alloc_counters();
    ARMED.store(was, Ordering::Relaxed);
    (r, b1.wrapping_sub(b0) as i64)
}
