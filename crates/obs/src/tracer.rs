//! Bounded ring-buffer tracer for transition lifecycle events.
//!
//! Provisioning transitions are rare (minutes apart in the paper's
//! traces) but their internal ordering matters: a correct run is
//! begin → digest broadcast → per-key migrations → drain. The tracer
//! captures that ordering with a global sequence number and a
//! monotonic timestamp relative to tracer creation, in a fixed-size
//! ring that drops the oldest events when full — tracing can stay on
//! forever without growing.
//!
//! Unlike the latency histograms, event recording takes a short mutex:
//! events are orders of magnitude rarer than cache operations, so a
//! ring behind a lock is simpler and still far off any hot path. The
//! sequence number and the timestamp are taken under that lock, so the
//! ring is in seq order by construction however many threads record.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// Default ring capacity: enough for several full transitions of a
/// large cluster.
const DEFAULT_CAPACITY: usize = 4096;

/// What happened. Server indices match the provisioning ring's
/// server numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A provisioning transition from `from` active servers to `to`
    /// was accepted.
    TransitionBegin {
        /// Active servers before the transition.
        from: u32,
        /// Active servers after the transition.
        to: u32,
    },
    /// The old owner's digest was pushed to (or pulled for) `server`.
    DigestBroadcast {
        /// Server whose digest was exchanged.
        server: u32,
        /// Whether the exchange succeeded.
        ok: bool,
    },
    /// A key was found on its old owner and re-set on its new owner.
    KeyMigrated {
        /// Old owner.
        from: u32,
        /// New owner.
        to: u32,
    },
    /// One batch of the background pull that runs ahead of demand
    /// while a window is open: `keys` keys read from their old owner
    /// were stored at their new one. Per batch, not per key, so a
    /// window that moves thousands of keys does not push its own
    /// [`TransitionBegin`](TraceKind::TransitionBegin) out of the ring;
    /// [`KeyMigrated`](TraceKind::KeyMigrated) stays one event per
    /// on-demand migration.
    KeysPulled {
        /// Old owner the batch was read from.
        from: u32,
        /// New owner it was stored at.
        to: u32,
        /// Keys the new owner stored (it refuses the ones it already
        /// holds).
        keys: u32,
    },
    /// A migration probe was skipped because the old owner is
    /// considered dead.
    MigrationSkipped {
        /// The unreachable old owner.
        server: u32,
    },
    /// A fetch fell back to the database because `server` was
    /// unreachable.
    Degraded {
        /// The unreachable server.
        server: u32,
    },
    /// The transition window closed: old-owner digests dropped,
    /// remaining misses go straight to the database.
    TransitionDrain {
        /// Active servers before the transition.
        from: u32,
        /// Active servers after the transition.
        to: u32,
    },
    /// A server was (logically) powered off after its drain.
    PowerOff {
        /// The retired server.
        server: u32,
    },
    /// The server took a counting-Bloom-filter digest snapshot (the
    /// `get SET_BLOOM_FILTER` half of a digest broadcast, observed on
    /// the server side of the wire).
    DigestSnapshot,
    /// The power controller decided to resize the cluster from `from`
    /// to `to` active servers, driven by the measured high-percentile
    /// delay (microseconds, saturating) and the observed aggregate
    /// load (ops/s, saturating). Recorded *before* the transition it
    /// actuates, so a decision with no matching `transition_begin`
    /// reads as an actuation failure.
    ControllerDecision {
        /// Active servers when the decision was taken.
        from: u32,
        /// The decided target count.
        to: u32,
        /// Measured delay driving the decision, in microseconds
        /// (saturated at `u32::MAX`; 0 when no signal was available).
        p99_us: u32,
        /// Observed aggregate load in ops/s (saturated at `u32::MAX`).
        ops: u32,
    },
    /// The circuit breaker for `server` opened (fast-fail engaged).
    BreakerOpen {
        /// Server the breaker guards.
        server: u32,
    },
    /// The breaker let a half-open probe through.
    BreakerProbe {
        /// Server the breaker guards.
        server: u32,
    },
    /// The breaker closed again after a successful probe.
    BreakerClose {
        /// Server the breaker guards.
        server: u32,
    },
}

impl TraceKind {
    /// Stable snake_case name for display and filtering.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::TransitionBegin { .. } => "transition_begin",
            TraceKind::DigestBroadcast { .. } => "digest_broadcast",
            TraceKind::KeyMigrated { .. } => "key_migrated",
            TraceKind::KeysPulled { .. } => "keys_pulled",
            TraceKind::MigrationSkipped { .. } => "migration_skipped",
            TraceKind::Degraded { .. } => "degraded",
            TraceKind::TransitionDrain { .. } => "transition_drain",
            TraceKind::PowerOff { .. } => "power_off",
            TraceKind::DigestSnapshot => "digest_snapshot",
            TraceKind::ControllerDecision { .. } => "controller_decision",
            TraceKind::BreakerOpen { .. } => "breaker_open",
            TraceKind::BreakerProbe { .. } => "breaker_probe",
            TraceKind::BreakerClose { .. } => "breaker_close",
        }
    }
}

/// One recorded event: a globally ordered sequence number, a monotonic
/// offset from tracer creation, and the event payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record order (0-based, never reused; gaps never occur
    /// even when the ring drops old events).
    pub seq: u64,
    /// Monotonic time since the tracer was created.
    pub at: Duration,
    /// What happened.
    pub kind: TraceKind,
}

/// A bounded, concurrency-safe event ring.
#[derive(Debug)]
pub struct EventTracer {
    start: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl EventTracer {
    /// Creates a tracer with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a tracer holding at most `capacity` events (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventTracer {
            start: Instant::now(),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Records one event, stamping it with the next sequence number
    /// and the monotonic offset from tracer creation. Drops the oldest
    /// event if the ring is full.
    pub fn record(&self, kind: TraceKind) {
        let mut ring = self.ring.lock();
        // Stamped under the lock: a number taken before it could enter
        // the ring after its successor, and the eviction below would
        // then drop seq n+1 while n is still retained.
        let event = TraceEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            at: self.start.elapsed(),
            kind,
        };
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// All retained events, oldest first. Sequence numbers within the
    /// result are strictly increasing.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().iter().copied().collect()
    }

    /// The retained events with a sequence number strictly greater
    /// than `since_seq`, oldest first — the cursor read behind the
    /// `/trace.jsonl?since_seq=` endpoint and the file sink. Pass the
    /// last sequence number already consumed; `None` returns
    /// everything retained. Events that fell out of the ring before
    /// the cursor caught up are gone (and counted by
    /// [`dropped`](Self::dropped)); the caller detects the gap by
    /// comparing the first returned seq with its cursor + 1.
    #[must_use]
    pub fn events_since(&self, since_seq: Option<u64>) -> Vec<TraceEvent> {
        let mut events = self.events();
        if let Some(cursor) = since_seq {
            events.retain(|e| e.seq > cursor);
        }
        events
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (including dropped ones).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Default for EventTracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn events_come_back_in_order_with_monotone_stamps() {
        let t = EventTracer::new();
        t.record(TraceKind::TransitionBegin { from: 8, to: 6 });
        t.record(TraceKind::DigestBroadcast {
            server: 7,
            ok: true,
        });
        t.record(TraceKind::KeyMigrated { from: 7, to: 3 });
        t.record(TraceKind::TransitionDrain { from: 8, to: 6 });
        let events = t.events();
        assert_eq!(events.len(), 4);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
        }
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        assert_eq!(events[0].kind.name(), "transition_begin");
        assert_eq!(events[3].kind.name(), "transition_drain");
    }

    #[test]
    fn ring_drops_oldest_when_full() {
        let t = EventTracer::with_capacity(3);
        for s in 0..5u32 {
            t.record(TraceKind::PowerOff { server: s });
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(t.recorded(), 5);
        assert_eq!(t.dropped(), 2);
        assert_eq!(events[0].seq, 2, "oldest two must have been evicted");
        assert_eq!(events[2].kind, TraceKind::PowerOff { server: 4 });
    }

    #[test]
    fn concurrent_records_keep_unique_seq() {
        let t = Arc::new(EventTracer::new());
        let threads: Vec<_> = (0..4)
            .map(|s| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        t.record(TraceKind::Degraded { server: s });
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let events = t.events();
        assert_eq!(events.len(), 400);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 400, "sequence numbers must be unique");
    }

    /// Several threads overflowing a small ring: what is retained is
    /// always the contiguous tail of what was recorded, which it was
    /// not while `seq` was taken before the ring lock.
    #[test]
    fn concurrent_overflow_retains_a_contiguous_tail() {
        let t = Arc::new(EventTracer::with_capacity(64));
        let start = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|s| {
                let (t, start) = (Arc::clone(&t), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for _ in 0..5000 {
                        t.record(TraceKind::Degraded { server: s });
                        // A reader racing the writers sees no gap either.
                        if s == 0 {
                            let events = t.events();
                            assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
                        }
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        let events = t.events();
        assert_eq!(events.len(), 64);
        assert_eq!(t.recorded(), 20_000);
        assert_eq!(t.ring.lock().front().map(|e| e.seq), Some(t.dropped()));
        assert_eq!(events[0].seq, 20_000 - 64);
        for pair in events.windows(2) {
            assert_eq!(pair[1].seq, pair[0].seq + 1, "gap in retained seqs");
            assert!(pair[0].at <= pair[1].at, "stamps follow seq order");
        }
    }

    #[test]
    fn overflow_counts_drops_and_keeps_the_tail_contiguous() {
        let t = EventTracer::with_capacity(8);
        for s in 0..20u32 {
            t.record(TraceKind::Degraded { server: s });
        }
        // Exactly the overwritten prefix is counted as dropped...
        assert_eq!(t.dropped(), 12);
        assert_eq!(t.recorded(), 20);
        // ...and the survivors are seq-contiguous from the tail: the
        // oldest retained seq equals the drop count, and every later
        // seq follows without a gap.
        let events = t.events();
        assert_eq!(events.len(), 8);
        assert_eq!(t.ring.lock().front().map(|e| e.seq), Some(12));
        for (offset, e) in events.iter().enumerate() {
            assert_eq!(e.seq, 12 + offset as u64, "gap in retained seqs");
        }
        // Cursor reads see the same tail: a reader that consumed up to
        // seq 14 gets exactly 15..20, and a fully caught-up reader
        // gets nothing.
        let rest = t.events_since(Some(14));
        assert_eq!(rest.first().map(|e| e.seq), Some(15));
        assert_eq!(rest.len(), 5);
        assert!(t.events_since(Some(19)).is_empty());
    }
}
