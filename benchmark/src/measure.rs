//! What a workload records in its measured window and how that
//! becomes the end-to-end metrics.
//!
//! Generators push one [`Sample`] per completed batch (closed loop) or
//! request (open loop); the coordinating thread reads per-task CPU time
//! at every slice boundary. [`end_to_end`] turns both into one value
//! per slice and takes the median over slices (`reduce`).

use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

use crate::procfs;
use crate::reduce::{median_of_slices, quantile_of, slice_of, Reduced, SLICES};

/// A request (or batch) later than this counts as over the limit.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(5);

/// Every workload runs its load for this long before the first measured
/// request, so the window starts on warm caches, grown buffers and
/// settled threads. A fixed length of time, so not part of `setup_s`.
pub const WARM_UP: Duration = Duration::from_secs(1);

/// Sample flag: due while a transition window was open.
pub const IN_WINDOW: u8 = 1;
/// Sample flag: spans were being recorded (traced pass only).
pub const TRACED: u8 = 2;

/// One completed batch or request. 16 bytes, so a generator can keep
/// every sample of a run in a buffer it touched before the run began.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Closed loop: completion time. Open loop: due time. Microseconds
    /// after the window start.
    pub at_us: u32,
    /// Closed loop: batch write → batch fully read. Open loop: due
    /// time → reply checked.
    pub latency_ns: u32,
    /// Commands (or fetches) in the sample.
    pub ops: u16,
    /// Keys asked for by `get`s; open loop: 1.
    pub gets: u16,
    /// Of those, answered by the cache tier.
    pub hits: u16,
    /// Commands that errored or returned a wrong value.
    pub failed: u8,
    pub flags: u8,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The times `setup_s` is the median of: the first set-up, which took
/// `first_s` and whose product the window used, and `SETUPS - 1` more,
/// each torn down at once.
pub fn set_up_times<T>(
    first_s: f64,
    mut set_up: impl FnMut() -> Result<T, String>,
    tear_down: impl Fn(T),
) -> Result<Vec<f64>, String> {
    let mut times = vec![first_s];
    for _ in 1..SETUPS {
        let begin = Instant::now();
        let rig = set_up()?;
        times.push(begin.elapsed().as_secs_f64());
        tear_down(rig);
    }
    Ok(times)
}

/// Resident bytes the workload added per key+value byte it holds.
pub fn mem_ratio(rss_before: u64, rss_after: u64, user_bytes: u64) -> f64 {
    rss_after.saturating_sub(rss_before) as f64 / user_bytes.max(1) as f64
}

pub fn sleep_until(deadline: Instant) {
    std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
}

/// CPU nanoseconds per slice, split as in [`procfs::cpu_delta`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuSlices {
    pub program_ns: [u64; SLICES],
    pub generator_ns: [u64; SLICES],
}

/// Blocks for the whole window, reading per-task CPU time at its start
/// and at every slice boundary.
pub fn watch_cpu(start: Instant, window: Duration, generators: &[u32]) -> io::Result<CpuSlices> {
    let mut out = CpuSlices::default();
    sleep_until(start);
    let mut prev = procfs::task_cpu_ns()?;
    for k in 0..SLICES {
        sleep_until(start + window.mul_f64((k + 1) as f64 / SLICES as f64));
        let now = procfs::task_cpu_ns()?;
        (out.generator_ns[k], out.program_ns[k]) = procfs::cpu_delta(&prev, &now, generators);
        prev = now;
    }
    Ok(out)
}

/// Everything [`end_to_end`] needs besides the samples.
pub struct WindowFacts {
    pub window: Duration,
    pub cpu: CpuSlices,
    /// One entry per set-up performed in the run.
    pub setups_s: Vec<f64>,
    pub mem_bytes_per_user_byte: f64,
    /// `(modelled joules, oracle joules)` of the observer's meter;
    /// `None` where no power policy runs.
    pub energy: Option<(f64, f64)>,
}

fn per_slice<T>(
    samples: &[Sample],
    window: Duration,
    init: impl Fn() -> T,
    mut add: impl FnMut(&mut T, &Sample),
) -> Vec<T> {
    let window_ns = window.as_nanos() as u64;
    let mut out: Vec<T> = (0..SLICES).map(|_| init()).collect();
    for s in samples {
        add(&mut out[slice_of(u64::from(s.at_us) * 1000, window_ns)], s);
    }
    out
}

#[derive(Default)]
struct SliceSums {
    samples: u64,
    ops: u64,
    failed: u64,
    gets: u64,
    hits: u64,
    over_limit: u64,
    latencies: Vec<u64>,
    window_latencies: Vec<u64>,
}

/// The end-to-end metrics and the unbounded `bench.*` rows
/// (`report::UNBOUNDED_ROWS`), by name. `None` if one has no sample in
/// any slice.
pub fn end_to_end(
    samples: &[Sample],
    facts: &WindowFacts,
) -> Option<BTreeMap<&'static str, Reduced>> {
    let slice_s = facts.window.as_secs_f64() / SLICES as f64;
    let limit_ns = LATENCY_LIMIT.as_nanos() as u64;
    let mut sums = per_slice(samples, facts.window, SliceSums::default, |t, s| {
        t.samples += 1;
        t.ops += u64::from(s.ops);
        t.failed += u64::from(s.failed);
        t.gets += u64::from(s.gets);
        t.hits += u64::from(s.hits);
        let late = u64::from(s.latency_ns) > limit_ns || s.failed > 0;
        t.over_limit += u64::from(late);
        t.latencies.push(u64::from(s.latency_ns));
        if s.flags & IN_WINDOW != 0 {
            t.window_latencies.push(u64::from(s.latency_ns));
        }
    });

    let mut out = BTreeMap::new();
    let mut put = |name: &'static str, per: Vec<Option<(f64, u64)>>| -> Option<()> {
        out.insert(name, median_of_slices(&per)?);
        Some(())
    };
    let ratio = |num: u64, den: u64| (den > 0).then(|| (num as f64 / den as f64, den));

    put(
        "bench.ops_per_s",
        sums.iter()
            .map(|t| Some(((t.ops - t.failed) as f64 / slice_s, t.ops)))
            .collect(),
    )?;
    put(
        "bench.server_cpu_us_per_op",
        sums.iter()
            .zip(facts.cpu.program_ns)
            .map(|(t, ns)| ratio(ns, t.ops).map(|(r, n)| (r / 1e3, n)))
            .collect(),
    )?;
    put(
        "hit_frac",
        sums.iter().map(|t| ratio(t.hits, t.gets)).collect(),
    )?;
    put(
        "within_limit_frac",
        sums.iter()
            .map(|t| ratio(t.samples - t.over_limit, t.samples))
            .collect(),
    )?;
    let mut quantiles = |name, q: f64, windowed: bool| {
        let per = sums
            .iter_mut()
            .map(|t| {
                let v = if windowed {
                    &mut t.window_latencies
                } else {
                    &mut t.latencies
                };
                quantile_of(v, q).map(|ns| (ns as f64 / 1e3, v.len() as u64))
            })
            .collect();
        put(name, per)
    };
    quantiles("bench.p50_us", 0.50, false)?;
    quantiles("bench.p99_us", 0.99, false)?;
    // A workload without transitions has no request due inside a
    // window; its windowed p99 is its p99.
    let any_window = samples.iter().any(|s| s.flags & IN_WINDOW != 0);
    quantiles("bench.window_p99_us", 0.99, any_window)?;

    let whole = |value: f64, n: u64| Reduced {
        value,
        samples_per_slice: n,
    };
    let total_ops: u64 = sums.iter().map(|t| t.ops - t.failed).sum();
    let mut setups = facts.setups_s.clone();
    setups.sort_by(f64::total_cmp);
    out.insert(
        "setup_s",
        whole(*setups.get(setups.len() / 2)?, setups.len() as u64),
    );
    out.insert(
        "mem_bytes_per_user_byte",
        whole(facts.mem_bytes_per_user_byte, 1),
    );
    // Without a power policy every server stays on whatever the load:
    // the ratio does not apply and reads its neutral value.
    out.insert(
        "energy_ratio",
        whole(facts.energy.map_or(1.0, |(j, oracle)| j / oracle), 1),
    );
    if let Some((joules, _)) = facts.energy {
        out.insert(
            "bench.joules_per_req",
            whole(joules / total_ops.max(1) as f64, total_ops),
        );
    }
    Some(out)
}
