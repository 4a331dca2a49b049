//! FIFO multi-server queueing stations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// A FIFO queueing station with a fixed number of parallel servers.
///
/// This models finite-concurrency backends: a database shard with a
/// connection pool of `c` connections, or a cache server's worker
/// threads. Jobs that arrive while all servers are busy wait in FIFO
/// order; that queueing delay is exactly the mechanism by which the
/// paper's "miss storms" turn into response-time spikes (Fig. 9).
///
/// `acquire` performs the entire admission: given the arrival time and
/// service demand it returns when service starts and ends, and records
/// the reservation.
///
/// # Example
///
/// ```
/// use proteus_sim::{Resource, SimDuration, SimTime};
///
/// let mut pool = Resource::new(1);
/// let t0 = SimTime::ZERO;
/// let svc = SimDuration::from_millis(10);
/// let a = pool.acquire(t0, svc);
/// let b = pool.acquire(t0, svc); // must wait for the first job
/// assert_eq!(a.start, t0);
/// assert_eq!(b.start, t0 + svc);
/// assert_eq!(b.end, t0 + svc + svc);
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    servers: usize,
    busy_until: BinaryHeap<Reverse<SimTime>>,
    busy_time: SimDuration,
}

/// The outcome of admitting one job to a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service begins (>= arrival time).
    pub start: SimTime,
    /// When service completes.
    pub end: SimTime,
}

impl Resource {
    /// Creates a station with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    #[must_use]
    pub fn new(servers: usize) -> Self {
        assert!(servers > 0, "a resource needs at least one server");
        Resource {
            servers,
            busy_until: BinaryHeap::with_capacity(servers),
            busy_time: SimDuration::ZERO,
        }
    }

    /// Admits a job arriving at `now` with service demand `service`,
    /// returning its start and completion times.
    ///
    /// Jobs must be admitted in non-decreasing arrival order for the
    /// FIFO semantics to hold; the discrete-event loop guarantees this.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Grant {
        // Drop reservations that have already completed.
        while let Some(&Reverse(t)) = self.busy_until.peek() {
            if t <= now && !self.busy_until.is_empty() {
                self.busy_until.pop();
            } else {
                break;
            }
        }
        let start = if self.busy_until.len() < self.servers {
            now
        } else {
            // All servers busy: wait for the earliest to free up.
            let Reverse(free_at) = self.busy_until.pop().expect("non-empty");
            free_at.max(now)
        };
        let end = start + service;
        self.busy_until.push(Reverse(end));
        self.busy_time += service;
        Grant { start, end }
    }

    /// Number of jobs currently in service or reserved at time `now`.
    #[must_use]
    pub fn in_service(&self, now: SimTime) -> usize {
        self.busy_until.iter().filter(|Reverse(t)| *t > now).count()
    }

    /// Total service time delivered so far.
    #[must_use]
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = Resource::new(4);
        let g = r.acquire(SimTime::from_secs(1), MS * 10);
        assert_eq!(g.start, SimTime::from_secs(1));
        assert_eq!(g.end, SimTime::from_secs(1) + MS * 10);
        assert_eq!(
            g.start.saturating_since(SimTime::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn saturated_resource_queues_fifo() {
        let mut r = Resource::new(2);
        let t = SimTime::ZERO;
        let g1 = r.acquire(t, MS * 10);
        let g2 = r.acquire(t, MS * 10);
        let g3 = r.acquire(t, MS * 10);
        let g4 = r.acquire(t, MS * 10);
        assert_eq!(g1.start, t);
        assert_eq!(g2.start, t);
        assert_eq!(g3.start, t + MS * 10);
        assert_eq!(g4.start, t + MS * 10);
        assert_eq!(g4.end, t + MS * 20);
    }

    #[test]
    fn completed_jobs_free_servers() {
        let mut r = Resource::new(1);
        let g1 = r.acquire(SimTime::ZERO, MS * 5);
        assert_eq!(g1.end, SimTime::ZERO + MS * 5);
        // Arrives after the first finished: no wait.
        let g2 = r.acquire(SimTime::ZERO + MS * 7, MS * 5);
        assert_eq!(g2.start, SimTime::ZERO + MS * 7);
    }

    #[test]
    fn wait_accumulates_under_overload() {
        let mut r = Resource::new(1);
        let waited = (0..10).fold(SimDuration::ZERO, |sum, _| {
            sum + r
                .acquire(SimTime::ZERO, MS * 10)
                .start
                .saturating_since(SimTime::ZERO)
        });
        // Jobs 2..10 wait 10, 20, ..., 90 ms = 450 ms total.
        assert_eq!(waited, MS * 450);
        assert_eq!(r.busy_time(), MS * 100);
    }

    #[test]
    fn in_service_counts_active_reservations() {
        let mut r = Resource::new(4);
        r.acquire(SimTime::ZERO, MS * 10);
        r.acquire(SimTime::ZERO, MS * 20);
        assert_eq!(r.in_service(SimTime::ZERO + MS * 5), 2);
        assert_eq!(r.in_service(SimTime::ZERO + MS * 15), 1);
        assert_eq!(r.in_service(SimTime::ZERO + MS * 25), 0);
    }

    #[test]
    fn utilization_is_busy_fraction() {
        let mut r = Resource::new(2);
        r.acquire(SimTime::ZERO, SimDuration::from_secs(1));
        // 1 busy server-second over 2 servers * 1 second = 0.5
        let u = r.busy_time().as_secs_f64() / (2.0 * 1.0);
        assert!((u - 0.5).abs() < 1e-9, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn zero_servers_rejected() {
        let _ = Resource::new(0);
    }
}
