//! The three things the benchmark reads from `/proc`: which kernel
//! task the calling thread is, how long each task of this process has
//! been on a CPU, and the resident set size.
//!
//! Every reader returns an error when a file or field is missing; the
//! caller stops the run with that message. A metric is never reported
//! as 0 because its source could not be read.

use std::collections::BTreeMap;
use std::fs;
use std::io;

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Kernel task id of the calling thread.
pub fn thread_tid() -> io::Result<u32> {
    let link = fs::read_link("/proc/thread-self")?;
    link.file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| bad("/proc/thread-self does not end in a task id"))
}

/// On-CPU nanoseconds of every live task of this process, by task id
/// (first field of `/proc/self/task/<tid>/schedstat`). A task that
/// exits between the directory listing and the read is skipped.
pub fn task_cpu_ns() -> io::Result<BTreeMap<u32, u64>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|n| n.parse().ok()) else {
            continue;
        };
        let text = match fs::read_to_string(entry.path().join("schedstat")) {
            Ok(t) => t,
            // ENOENT or ESRCH: the task exited after the listing.
            Err(e) if e.kind() == io::ErrorKind::NotFound || e.raw_os_error() == Some(3) => {
                continue
            }
            Err(e) => return Err(e),
        };
        let ns = text
            .split_ascii_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad("schedstat has no run-time field"))?;
        out.insert(tid, ns);
    }
    if out.is_empty() {
        return Err(bad("/proc/self/task lists no task"));
    }
    Ok(out)
}

/// CPU nanoseconds spent between two [`task_cpu_ns`] readings, split
/// into the tasks named in `generators` and all the others. A task
/// missing from `before` started in between and counts from zero; one
/// missing from `after` exited and its time is lost (only the
/// short-lived digest-broadcast threads do that).
pub fn cpu_delta(
    before: &BTreeMap<u32, u64>,
    after: &BTreeMap<u32, u64>,
    generators: &[u32],
) -> (u64, u64) {
    let mut generator = 0;
    let mut program = 0;
    for (tid, &ns) in after {
        let delta = ns.saturating_sub(before.get(tid).copied().unwrap_or(0));
        if generators.contains(tid) {
            generator += delta;
        } else {
            program += delta;
        }
    }
    (generator, program)
}

/// Resident set size in bytes (`VmRSS` of `/proc/self/status`).
pub fn rss_bytes() -> io::Result<u64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .ok_or_else(|| bad("/proc/self/status has no VmRSS line"))?;
    let kb: u64 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad("VmRSS line has no number"))?;
    Ok(kb * 1024)
}
