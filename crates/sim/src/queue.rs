//! The event queue at the heart of the discrete-event simulation.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A priority queue of timestamped events, popped in time order.
///
/// Events scheduled for the *same* instant are popped in the order they
/// were scheduled (FIFO tie-breaking via a monotonically increasing
/// sequence number), which keeps simulations fully deterministic — a
/// plain `BinaryHeap` over equal keys would not guarantee this.
///
/// # Example
///
/// ```
/// use proteus_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let t = SimTime::from_secs(1);
/// q.schedule(t, "first");
/// q.schedule(t, "second");
/// assert_eq!(q.pop(), Some((t, "first")));
/// assert_eq!(q.pop(), Some((t, "second")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // is popped first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty event queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with capacity for `n` pending events.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        q.schedule(SimTime::from_secs(1), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.schedule(SimTime::from_secs(5), "middle");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "late");
    }

    #[test]
    fn default_queue_is_empty() {
        let mut q: EventQueue<u8> = EventQueue::default();
        assert_eq!(q.pop(), None);
        q.schedule(SimTime::ZERO, 1);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 1)));
        assert_eq!(q.pop(), None);
    }
}
