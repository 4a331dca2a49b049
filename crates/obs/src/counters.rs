//! Typed counters, gauges, and per-class latency families.
//!
//! These are the building blocks of the telemetry registry: a
//! [`Counter`] is a monotone relaxed `AtomicU64`, a [`Gauge`] an
//! `AtomicI64` that may move both ways, and the two class enums
//! ([`OpClass`], [`FetchClassKind`]) index the fixed array of
//! [`LatencyHistogram`]s a [`ClassLatencies`] holds, so the record
//! path stays allocation-free.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

use crate::histogram::{HistogramSnapshot, LatencyHistogram};

/// A monotonically increasing event counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move both ways (e.g. open
/// connections).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds `n`, which may be negative.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Wire-operation classes the server distinguishes when recording
/// per-command latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpClass {
    /// Single-key `get`.
    Get,
    /// Multi-key `get` (one wire round-trip, many keys).
    MultiGet,
    /// `set`.
    Set,
    /// `add`.
    Add,
    /// `replace`.
    Replace,
    /// `delete`.
    Delete,
    /// `touch`.
    Touch,
    /// `incr`.
    Incr,
    /// `decr`.
    Decr,
    /// `stats` (either form).
    Stats,
    /// Traffic on the reserved keys: the digest's `SET_BLOOM_FILTER` /
    /// `BLOOM_FILTER`, and the `MRU_KEYS:` listing a pull-ahead
    /// migration pages through.
    Digest,
    /// Anything else (`version`, `quit`, future verbs).
    Other,
}

impl OpClass {
    /// Every class, in display order.
    pub const ALL: [OpClass; 12] = [
        OpClass::Get,
        OpClass::MultiGet,
        OpClass::Set,
        OpClass::Add,
        OpClass::Replace,
        OpClass::Delete,
        OpClass::Touch,
        OpClass::Incr,
        OpClass::Decr,
        OpClass::Stats,
        OpClass::Digest,
        OpClass::Other,
    ];

    /// Stable snake_case name used in metric labels and STAT keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Get => "get",
            OpClass::MultiGet => "multi_get",
            OpClass::Set => "set",
            OpClass::Add => "add",
            OpClass::Replace => "replace",
            OpClass::Delete => "delete",
            OpClass::Touch => "touch",
            OpClass::Incr => "incr",
            OpClass::Decr => "decr",
            OpClass::Stats => "stats",
            OpClass::Digest => "digest",
            OpClass::Other => "other",
        }
    }
}

/// How a cluster fetch was ultimately satisfied, as observed by the
/// client. Mirrors `ClusterFetch` in proteus-net plus the
/// false-positive refinement from the simulator's `FetchClass`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FetchClassKind {
    /// Served by the key's current owner.
    NewHit,
    /// Found on the old owner mid-transition and migrated.
    Migrated,
    /// Fell through to the database (true miss).
    Database,
    /// A cache server was unreachable; served from the database.
    Degraded,
    /// The digest claimed the old server had the key but it did not
    /// (Bloom-filter false positive); served from the database.
    FalsePositive,
}

impl FetchClassKind {
    /// Every class, in display order.
    pub const ALL: [FetchClassKind; 5] = [
        FetchClassKind::NewHit,
        FetchClassKind::Migrated,
        FetchClassKind::Database,
        FetchClassKind::Degraded,
        FetchClassKind::FalsePositive,
    ];

    /// Stable snake_case name used in metric labels and STAT keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FetchClassKind::NewHit => "new_hit",
            FetchClassKind::Migrated => "migrated",
            FetchClassKind::Database => "database",
            FetchClassKind::Degraded => "degraded",
            FetchClassKind::FalsePositive => "false_positive",
        }
    }
}

/// A dense class enum: a [`ClassLatencies`] keeps one histogram per
/// value, at the value's position in [`ALL`](Self::ALL).
pub trait LatencyClass: Copy + 'static {
    /// Every class, in display order.
    const ALL: &'static [Self];

    /// The class's position in [`ALL`](Self::ALL).
    fn index(self) -> usize;
}

impl LatencyClass for OpClass {
    const ALL: &'static [Self] = &OpClass::ALL;

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl LatencyClass for FetchClassKind {
    const ALL: &'static [Self] = &FetchClassKind::ALL;

    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// One latency histogram per class `C`, `N` of them.
///
/// `record` is as cheap as a bare histogram record: one array index
/// plus the atomic bumps — no map lookup, no allocation.
#[derive(Debug)]
pub struct ClassLatencies<C, const N: usize> {
    hists: [LatencyHistogram; N],
    class: PhantomData<C>,
}

/// The server's per-[`OpClass`] command latencies.
pub type OpLatencies = ClassLatencies<OpClass, { OpClass::ALL.len() }>;

/// The cluster client's per-[`FetchClassKind`] fetch latencies. Every
/// fetch is timed, so a class's fetch count is its histogram's sample
/// count.
pub type FetchLatencies = ClassLatencies<FetchClassKind, { FetchClassKind::ALL.len() }>;

impl<C: LatencyClass, const N: usize> ClassLatencies<C, N> {
    /// Creates one histogram per class.
    #[must_use]
    pub fn new() -> Self {
        const { assert!(N == C::ALL.len(), "one histogram per class") };
        ClassLatencies {
            hists: std::array::from_fn(|_| LatencyHistogram::new()),
            class: PhantomData,
        }
    }

    /// Records one latency sample for `class`.
    #[inline]
    pub fn record(&self, class: C, d: Duration) {
        self.hists[class.index()].record(d);
    }

    /// Snapshots one class.
    #[must_use]
    pub fn snapshot(&self, class: C) -> HistogramSnapshot {
        self.hists[class.index()].snapshot()
    }

    /// Snapshots every class in [`LatencyClass::ALL`] order.
    #[must_use]
    pub fn snapshot_all(&self) -> Vec<(C, HistogramSnapshot)> {
        C::ALL.iter().map(|&c| (c, self.snapshot(c))).collect()
    }

    /// Heap bytes the family holds: every class's
    /// [`LatencyHistogram::heap_bytes`].
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.hists.iter().map(LatencyHistogram::heap_bytes).sum()
    }

    /// Merges every class into one combined snapshot.
    #[must_use]
    pub fn snapshot_merged(&self) -> HistogramSnapshot {
        let mut acc = HistogramSnapshot::empty();
        for h in &self.hists {
            acc.merge(&h.snapshot());
        }
        acc
    }
}

impl<C: LatencyClass, const N: usize> Default for ClassLatencies<C, N> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.add(4096);
        g.add(-4000);
        assert_eq!(g.get(), 97);
    }

    #[test]
    fn op_class_indices_are_dense_and_names_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(names.insert(c.name()), "duplicate name {}", c.name());
        }
    }

    #[test]
    fn fetch_class_indices_are_dense_and_names_unique() {
        let mut names = std::collections::HashSet::new();
        for (i, c) in FetchClassKind::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(names.insert(c.name()), "duplicate name {}", c.name());
        }
    }

    #[test]
    fn op_latencies_route_to_the_right_class() {
        let ops = OpLatencies::new();
        ops.record(OpClass::Get, Duration::from_micros(10));
        ops.record(OpClass::Get, Duration::from_micros(20));
        ops.record(OpClass::Set, Duration::from_micros(30));
        assert_eq!(ops.snapshot(OpClass::Get).count(), 2);
        assert_eq!(ops.snapshot(OpClass::Set).count(), 1);
        assert_eq!(ops.snapshot(OpClass::Delete).count(), 0);
        assert_eq!(ops.snapshot_merged().count(), 3);
    }

    #[test]
    fn fetch_latencies_count_and_time() {
        let f = FetchLatencies::new();
        f.record(FetchClassKind::NewHit, Duration::from_micros(5));
        f.record(FetchClassKind::NewHit, Duration::from_micros(7));
        f.record(FetchClassKind::Degraded, Duration::from_millis(2));
        assert_eq!(f.snapshot(FetchClassKind::NewHit).count(), 2);
        assert_eq!(f.snapshot(FetchClassKind::Degraded).count(), 1);
        assert_eq!(f.snapshot(FetchClassKind::Database).count(), 0);
        let all = f.snapshot_all();
        assert_eq!(all.len(), FetchClassKind::ALL.len());
        for (class, snap) in all {
            assert_eq!(snap.count(), f.snapshot(class).count(), "{}", class.name());
        }
    }
}
