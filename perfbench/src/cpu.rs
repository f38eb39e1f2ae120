//! CPU time: the whole process, the calling thread, and every live thread
//! of the process grouped by name.
//!
//! Per-thread numbers come from `/proc/self/task/<tid>/{comm,schedstat}`
//! (nanoseconds on CPU), falling back to the `utime + stime` ticks of
//! `stat` where the kernel has no schedstat.  Thread names are truncated
//! to 15 bytes by the kernel, so `salsa-serve-conn` reads back as
//! `salsa-serve-con`.

use std::fs;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
/// `USER_HZ` on Linux: the unit of the tick counts in `stat`.
const TICK_NS: u64 = 10_000_000;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields, the
    // layout of `struct timespec` on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the whole process so far, in nanoseconds
/// (including threads that have already exited).
pub fn process_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread so far, in nanoseconds.
pub fn thread_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Scheduler ticks of this machine so far, from the first line of
/// `/proc/stat`: (ticks the hypervisor stole from it, all ticks).
pub fn host_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the ticks between two [`host_ticks`] readings that the
/// hypervisor stole.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    to.0.saturating_sub(from.0) as f64 / to.1.saturating_sub(from.1).max(1) as f64
}

/// One live thread of this process.
#[derive(Debug, Clone)]
pub struct ThreadCpu {
    pub comm: String,
    pub cpu_ns: u64,
}

fn task_cpu_ns(dir: &std::path::Path) -> Option<u64> {
    if let Ok(schedstat) = fs::read_to_string(dir.join("schedstat")) {
        if let Some(ns) = schedstat.split_whitespace().next() {
            return ns.parse().ok();
        }
    }
    // `comm` may contain spaces; the fields after it start past the last ')'.
    let stat = fs::read_to_string(dir.join("stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of `stat` (utime, stime) are 12 and 13 after `comm`.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * TICK_NS)
}

/// Every live thread of the process with its CPU time so far.  Threads
/// that exit while the directory is read are skipped.
pub fn threads() -> Vec<ThreadCpu> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(comm) = fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if let Some(cpu_ns) = task_cpu_ns(&dir) {
            out.push(ThreadCpu {
                comm: comm.trim_end().to_string(),
                cpu_ns,
            });
        }
    }
    out
}

/// Summed CPU time of the live threads whose name starts with `prefix`.
pub fn group_ns(threads: &[ThreadCpu], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|t| t.comm.starts_with(prefix))
        .map(|t| t.cpu_ns)
        .sum()
}
